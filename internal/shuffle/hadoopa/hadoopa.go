// Package hadoopa implements the Hadoop-A baseline the paper compares
// against (Wang et al., "Hadoop Acceleration through Network Levitated
// Merge", SC'11; shipped as Mellanox UDA). It shares the verbs transport
// with the OSU design but differs in exactly the ways §III-C identifies:
//
//  1. No intermediate-data pre-fetching or caching: every packet request
//     reads the map output from local disk ("DataEngine doesn't provide
//     data caching to decrease the disk access").
//  2. The levitated merge: data stays resident on the mapper side and the
//     reducer RDMA-READs packets on demand while merging remote-resident
//     sorted segments through a priority queue.
//  3. Size-oblivious packet filling: a fixed number of key-value pairs
//     per packet regardless of their size — the "inefficiency in number
//     of key-value pairs transferred each time" that makes Hadoop-A lose
//     to IPoIB on the Sort benchmark's ≤20,000-byte records (§IV-C).
package hadoopa

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/shuffle/stream"
	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// ServiceName is the UCR service Hadoop-A's plugin registers.
const ServiceName = "uda-shuffle"

// Engine is the Hadoop-A shuffle engine.
type Engine struct{}

// New returns the Hadoop-A baseline engine.
func New() *Engine { return &Engine{} }

// Name implements mapred.ShuffleEngine.
func (e *Engine) Name() string { return "hadoop-a" }

// StartTracker implements mapred.ShuffleEngine.
func (e *Engine) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	conf := tt.Conf()
	l, err := tt.Fabric().Listen(tt.Device(), ServiceName)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		tt:          tt,
		listener:    l,
		kvPerPacket: int(conf.Int(config.KeyKVPairsPerPacket)),
		ctx:         ctx,
		cancel:      cancel,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// server is the TaskTracker-side DataEngine: per-connection handlers that
// read map output from disk, stage a count-driven packet, and advertise
// it for the reducer's RDMA READ.
type server struct {
	tt          *mapred.TaskTracker
	listener    *ucr.Listener
	kvPerPacket int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	endpoints []*ucr.EndPoint
	closed    bool
}

// MapOutputReady implements mapred.TrackerServer: Hadoop-A keeps no
// cache, so map completion needs no tracker-side action.
func (s *server) MapOutputReady(mapred.JobInfo, int) {}

// JobComplete implements mapred.TrackerServer.
func (s *server) JobComplete(mapred.JobInfo) {}

// Close implements mapred.TrackerServer.
func (s *server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	eps := s.endpoints
	s.mu.Unlock()
	s.cancel()
	s.listener.Close()
	for _, ep := range eps {
		ep.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		ep, err := s.listener.Accept(s.ctx)
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			ep.Close()
			return
		}
		s.endpoints = append(s.endpoints, ep)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(ep)
	}
}

// handle serves one reducer connection. Requests on a connection are
// strictly sequential (the levitated merge issues one fetch at a time per
// tracker), so a single staging region per connection is reused safely:
// the reducer RDMA-READs packet N before requesting packet N+1.
func (s *server) handle(ep *ucr.EndPoint) {
	defer s.wg.Done()
	var stage *verbs.MemoryRegion
	for {
		msg, err := ep.Recv(s.ctx)
		if err != nil {
			return
		}
		req, err := wire.DecodeDataRequest(msg)
		if err != nil {
			s.tt.Counters().Add("shuffle.hadoopa.bad.requests", 1)
			continue
		}
		resp := wire.DataResponse{MapID: req.MapID, ReduceID: req.ReduceID, Offset: req.Offset}

		// No cache: the DataEngine reads the map output from disk on
		// every request.
		run, err := s.tt.MapOutput(req.JobID, int(req.MapID), int(req.ReduceID))
		if err != nil {
			resp.Err = err.Error()
			_ = ep.Send(s.ctx, resp.Encode())
			continue
		}
		body, _, err := kv.RunBody(run)
		if err != nil {
			resp.Err = err.Error()
			_ = ep.Send(s.ctx, resp.Encode())
			continue
		}
		// Size-oblivious packing: fixed record count per packet.
		res, err := core.Pack(body, req.Offset, int(req.MaxBytes), int(req.MaxBytes), s.kvPerPacket, false)
		if err != nil {
			resp.Err = err.Error()
			_ = ep.Send(s.ctx, resp.Encode())
			continue
		}
		if stage == nil || stage.Len() < int(req.MaxBytes) {
			if stage != nil {
				_ = stage.Deregister()
			}
			stage, err = s.tt.Device().RegisterMemory(make([]byte, req.MaxBytes))
			if err != nil {
				resp.Err = err.Error()
				_ = ep.Send(s.ctx, resp.Encode())
				continue
			}
		}
		copy(stage.Bytes(), body[req.Offset:req.Offset+int64(res.Bytes)])
		resp.Bytes = int32(res.Bytes)
		resp.Records = int32(res.Records)
		resp.EOF = res.EOF
		resp.RemoteAddr = stage.Addr()
		resp.RKey = stage.RKey()
		c := s.tt.Counters()
		c.Add("shuffle.hadoopa.packets", 1)
		c.Add("shuffle.hadoopa.bytes", int64(res.Bytes))
		if err := ep.Send(s.ctx, resp.Encode()); err != nil {
			return
		}
	}
}

// NewReduceFetcher implements mapred.ShuffleEngine.
func (e *Engine) NewReduceFetcher(task mapred.ReduceTaskInfo) (mapred.ReduceFetcher, error) {
	conf := task.Job.Conf
	return &fetcher{
		task:        task,
		kvPerPacket: int(conf.Int(config.KeyKVPairsPerPacket)),
		bounceSize:  int(conf.Int(config.KeyRDMAPacketBytes)) + 64<<10,
		conns:       make(map[string]*hostConn),
	}, nil
}

// fetcher is the reducer side of the levitated merge: remote-resident
// sorted segments are merged through a priority queue, RDMA-READing the
// next packet of a segment when its buffered records run out. Like the
// OSU design there is no barrier — the reduce function pulls the merge
// through the same stream.Iterator — so the performance gap against
// OSU-IB comes from the disk reads per fetch and the size-oblivious
// packets, exactly as §III-C argues.
type fetcher struct {
	task        mapred.ReduceTaskInfo
	kvPerPacket int
	bounceSize  int

	mu    sync.Mutex
	conns map[string]*hostConn

	it     *stream.Iterator // the merged stream Fetch returns; nil until then
	runCtx context.Context  // fetcher-lifetime ctx; segment refills use this
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
}

type hostConn struct {
	host  string
	ep    *ucr.EndPoint
	mr    *verbs.MemoryRegion // local region the RDMA READ lands in
	reqCh chan chunkReq
}

type chunkReq struct {
	mapID  int
	offset int64
	seg    *segment
}

type chunk struct {
	data []byte
	eof  bool
	next int64
	off  int64 // requested offset (for retries)
	err  error
}

// segment is one remote-resident sorted map output partition, read a
// packet at a time. It is a kv.Iterator, so the merge is kv.Merger's,
// pulled by the reduce goroutine; refills and map recovery block it.
type segment struct {
	mapID int
	conn  *hostConn
	ready chan chunk

	it       *kv.BufferIterator
	err      error
	eof      bool
	attempts int
	f        *fetcher
}

func (seg *segment) request(ctx context.Context, offset int64) error {
	select {
	case seg.conn.reqCh <- chunkReq{mapID: seg.mapID, offset: offset, seg: seg}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Next implements kv.Iterator, fetching the segment's next packet when
// the buffered records run out.
func (seg *segment) Next() bool {
	ok, err := seg.next(seg.f.runCtx)
	seg.err = err
	return ok
}

// Record implements kv.Iterator: the current packet iterator's record.
func (seg *segment) Record() kv.Record { return seg.it.Record() }

// Err implements kv.Iterator.
func (seg *segment) Err() error { return seg.err }

func (seg *segment) next(ctx context.Context) (bool, error) {
	for {
		if seg.it != nil {
			if seg.it.Next() {
				return true, nil
			}
			if err := seg.it.Err(); err != nil {
				return false, err
			}
			seg.it = nil
		}
		if seg.eof {
			return false, nil
		}
		var ck chunk
		select {
		case ck = <-seg.ready:
		case <-ctx.Done():
			return false, ctx.Err()
		}
		if ck.err != nil {
			seg.attempts++
			if seg.f.task.RecoverMap == nil {
				return false, ck.err
			}
			if seg.attempts > mapred.MaxMapRecoveries {
				return false, fmt.Errorf("hadoopa: map %d unrecoverable after %d fetch attempts (last host %s): %w",
					seg.mapID, seg.attempts, seg.conn.host, ck.err)
			}
			seg.f.task.Local.Counters().Add("shuffle.fetch.failures", 1)
			host, err := seg.f.task.RecoverMap(ctx, seg.mapID, seg.attempts)
			if err != nil {
				return false, fmt.Errorf("recovering map %d: %w (after %w)", seg.mapID, err, ck.err)
			}
			seg.f.mu.Lock()
			hc := seg.f.conns[host]
			seg.f.mu.Unlock()
			if hc == nil {
				return false, fmt.Errorf("hadoopa: recovered map %d on unknown host %s", seg.mapID, host)
			}
			seg.conn = hc
			if err := seg.request(ctx, ck.off); err != nil {
				return false, err
			}
			continue
		}
		seg.eof = ck.eof
		if !ck.eof {
			if err := seg.request(ctx, ck.next); err != nil {
				return false, err
			}
		}
		if len(ck.data) > 0 {
			seg.it = kv.NewBufferIterator(ck.data)
		}
	}
}

func (f *fetcher) dial(ctx context.Context, host string) (*hostConn, error) {
	local := f.task.Local
	ep, err := local.Fabric().Connect(ctx, local.Device(), host, ServiceName)
	if err != nil {
		return nil, fmt.Errorf("hadoopa: connecting to %s: %w", host, err)
	}
	mr, err := local.Device().RegisterMemory(make([]byte, f.bounceSize))
	if err != nil {
		ep.Close()
		return nil, err
	}
	hc := &hostConn{host: host, ep: ep, mr: mr, reqCh: make(chan chunkReq, f.task.Job.NumMaps+4)}
	f.wg.Add(1)
	go f.connWorker(ctx, hc)
	return hc, nil
}

func (f *fetcher) connWorker(ctx context.Context, hc *hostConn) {
	defer f.wg.Done()
	for {
		var req chunkReq
		select {
		case req = <-hc.reqCh:
		case <-ctx.Done():
			return
		}
		ck := f.fetchChunk(ctx, hc, req)
		select {
		case req.seg.ready <- ck:
		case <-ctx.Done():
			return
		}
	}
}

// fetchChunk is the levitated fetch: request → header advertising the
// server staging region → RDMA READ of the payload.
func (f *fetcher) fetchChunk(ctx context.Context, hc *hostConn, req chunkReq) chunk {
	wreq := wire.DataRequest{
		JobID:      f.task.Job.ID,
		MapID:      int32(req.mapID),
		ReduceID:   int32(f.task.ReduceID),
		Offset:     req.offset,
		MaxBytes:   int32(hc.mr.Len()),
		MaxRecords: int32(f.kvPerPacket),
	}
	if err := hc.ep.Send(ctx, wreq.Encode()); err != nil {
		return chunk{off: req.offset, err: fmt.Errorf("hadoopa: request to %s: %w", hc.host, err)}
	}
	msg, err := hc.ep.Recv(ctx)
	if err != nil {
		return chunk{off: req.offset, err: fmt.Errorf("hadoopa: response from %s: %w", hc.host, err)}
	}
	resp, err := wire.DecodeDataResponse(msg)
	if err != nil {
		return chunk{off: req.offset, err: err}
	}
	if resp.Err != "" {
		return chunk{off: req.offset, err: fmt.Errorf("hadoopa: tracker %s: %s", hc.host, resp.Err)}
	}
	if resp.Bytes > 0 {
		sge := verbs.SGE{MR: hc.mr, Length: int(resp.Bytes)}
		if err := hc.ep.RDMARead(ctx, sge, resp.RemoteAddr, resp.RKey); err != nil {
			return chunk{off: req.offset, err: fmt.Errorf("hadoopa: rdma read from %s: %w", hc.host, err)}
		}
	}
	payload := make([]byte, resp.Bytes)
	copy(payload, hc.mr.Bytes()[:resp.Bytes])
	f.task.Local.Counters().Add("shuffle.hadoopa.recv.bytes", int64(resp.Bytes))
	return chunk{data: payload, eof: resp.EOF, next: resp.Offset + int64(resp.Bytes), off: req.offset}
}

// Fetch implements mapred.ReduceFetcher.
func (f *fetcher) Fetch(ctx context.Context) (kv.Iterator, error) {
	if f.it != nil {
		return nil, errors.New("hadoopa: Fetch called twice")
	}
	ctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	f.runCtx = ctx
	// Packets are plain heap buffers here (no payload pool), so the
	// iterator has nothing to recycle.
	f.it = stream.New(ctx, f.task.Job.Comparator, nil, nil)
	for _, host := range f.task.Hosts {
		hc, err := f.dial(ctx, host)
		if err != nil {
			cancel()
			return nil, err
		}
		f.mu.Lock()
		f.conns[host] = hc
		f.mu.Unlock()
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.it.Gather(f.task.Events, f.task.Job.NumMaps, f.openSegment)
	}()
	return f.it, nil
}

// openSegment starts reading one completed map's partition: its first
// packet is requested as the event arrives.
func (f *fetcher) openSegment(ev mapred.MapEvent) (kv.Iterator, error) {
	f.mu.Lock()
	hc := f.conns[ev.Host]
	f.mu.Unlock()
	if hc == nil {
		return nil, fmt.Errorf("hadoopa: map event from unknown host %s", ev.Host)
	}
	seg := &segment{mapID: ev.MapID, conn: hc, ready: make(chan chunk, 1), f: f}
	return seg, seg.request(f.runCtx, 0)
}

// Close implements mapred.ReduceFetcher, after the consumer's last Next.
func (f *fetcher) Close() error {
	f.once.Do(func() {
		if f.cancel != nil {
			f.cancel()
		}
		f.mu.Lock()
		conns := f.conns
		f.conns = map[string]*hostConn{}
		f.mu.Unlock()
		for _, hc := range conns {
			hc.ep.Close()
			_ = hc.mr.Deregister()
		}
		f.wg.Wait()
		if f.it != nil {
			f.it.Close()
		}
	})
	return nil
}
