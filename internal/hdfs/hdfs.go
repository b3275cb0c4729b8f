// Package hdfs implements the storage substrate the paper's MapReduce
// runs on (§II-A): a miniature Hadoop Distributed File System with a
// NameNode managing the namespace and block placement, and DataNodes
// storing fixed-size blocks. Files are written through a block-splitting
// writer and read back through a streaming reader; the JobTracker uses
// block locations for locality-aware MapTask scheduling, and TeraGen /
// RandomWriter write their inputs here.
package hdfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync"

	"rdmamr/internal/storage"
)

// Errors.
var (
	ErrNotFound    = errors.New("hdfs: no such file")
	ErrExists      = errors.New("hdfs: file exists")
	ErrNoDataNodes = errors.New("hdfs: no datanodes registered")
	ErrCorrupt     = errors.New("hdfs: block missing on all replicas")
)

// BlockID identifies one block cluster-wide.
type BlockID uint64

func (b BlockID) storeKey() string { return fmt.Sprintf("blk_%016x", uint64(b)) }

// BlockLocation describes one block of a file: its ID, size, and the
// DataNodes holding replicas.
type BlockLocation struct {
	ID    BlockID
	Size  int64
	Hosts []string
}

// FileInfo is namespace metadata for one file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks []BlockLocation
}

// DataNode stores blocks in a local object store. The same store instance
// can be shared with the node's TaskTracker so HDFS and map-output traffic
// contend for the same accounted device, as on a real slave node. Every
// block carries a CRC32 recorded at write time; reads verify it, so a
// silently corrupted replica is skipped in favour of a healthy one. Reads
// return the stored block itself (storage.LocalStore.Get), so the same
// check catches a reader that wrote into what it was lent.
type DataNode struct {
	name  string
	store *storage.LocalStore

	mu   sync.Mutex
	crcs map[BlockID]uint32
}

// NewDataNode returns a DataNode named host, storing into store (a fresh
// store is created when nil).
func NewDataNode(host string, store *storage.LocalStore) *DataNode {
	if store == nil {
		store = storage.NewLocalStore()
	}
	return &DataNode{name: host, store: store, crcs: make(map[BlockID]uint32)}
}

// Name returns the DataNode's host name.
func (dn *DataNode) Name() string { return dn.name }

// Store exposes the underlying object store (for traffic accounting).
func (dn *DataNode) Store() *storage.LocalStore { return dn.store }

func (dn *DataNode) putBlock(id BlockID, data []byte) error {
	if err := dn.store.Put(id.storeKey(), data); err != nil {
		return err
	}
	dn.recordCRC(id, data)
	return nil
}

// adoptBlock is putBlock by ownership transfer: the store keeps data
// itself. Block IDs are never reused, so the name is new, as Put requires.
func (dn *DataNode) adoptBlock(id BlockID, data []byte) {
	dn.store.OverwriteOwned(id.storeKey(), data)
	dn.recordCRC(id, data)
}

func (dn *DataNode) recordCRC(id BlockID, data []byte) {
	sum := crc32.ChecksumIEEE(data)
	dn.mu.Lock()
	dn.crcs[id] = sum
	dn.mu.Unlock()
}

// ErrChecksum reports a block whose stored bytes no longer match the
// CRC recorded at write time.
var ErrChecksum = errors.New("hdfs: block checksum mismatch")

func (dn *DataNode) getBlock(id BlockID) ([]byte, error) {
	data, err := dn.store.Get(id.storeKey())
	if err != nil {
		return nil, err
	}
	dn.mu.Lock()
	want, ok := dn.crcs[id]
	dn.mu.Unlock()
	if ok && crc32.ChecksumIEEE(data) != want {
		return nil, fmt.Errorf("%w: block %d on %s", ErrChecksum, id, dn.name)
	}
	return data, nil
}

func (dn *DataNode) deleteBlock(id BlockID) {
	// Best-effort: replica may legitimately be elsewhere.
	_ = dn.store.Delete(id.storeKey())
	dn.mu.Lock()
	delete(dn.crcs, id)
	dn.mu.Unlock()
}

// FileSystem is the client-facing HDFS handle: one NameNode's namespace
// plus its registered DataNodes.
type FileSystem struct {
	mu          sync.RWMutex
	files       map[string]*fileMeta
	datanodes   []*DataNode
	byName      map[string]*DataNode
	nextBlock   BlockID
	nextPlace   int // round-robin cursor for placement
	blockSize   int64
	replication int

	// spare holds closed writers' block buffers for the writers after
	// them, within maxSpareBuffers and maxSpareBytes.
	spareMu    sync.Mutex
	spare      [][]byte
	spareBytes int
}

// A FileSystem keeps at most maxSpareBuffers closed writers' buffers, of
// at most maxSpareBytes together, so a buffer of the default 256 MiB
// block size is never kept.
const (
	maxSpareBuffers = 8
	maxSpareBytes   = 32 << 20
)

// takeBuffer returns the largest spare buffer, emptied, or nil.
func (fs *FileSystem) takeBuffer() []byte {
	fs.spareMu.Lock()
	defer fs.spareMu.Unlock()
	if len(fs.spare) == 0 {
		return nil
	}
	best := 0
	for i, b := range fs.spare {
		if cap(b) > cap(fs.spare[best]) {
			best = i
		}
	}
	b, last := fs.spare[best], len(fs.spare)-1
	fs.spare[best], fs.spare[last] = fs.spare[last], nil
	fs.spare = fs.spare[:last]
	fs.spareBytes -= cap(b)
	return b[:0]
}

// putBuffer keeps a closed writer's buffer if the bounds allow. It holds
// at most a partial block, which was copied into its DataNodes' stores: a
// full one went to the store itself.
func (fs *FileSystem) putBuffer(b []byte) {
	fs.spareMu.Lock()
	defer fs.spareMu.Unlock()
	if cap(b) == 0 || len(fs.spare) == maxSpareBuffers || fs.spareBytes+cap(b) > maxSpareBytes {
		return
	}
	fs.spare = append(fs.spare, b[:0])
	fs.spareBytes += cap(b)
}

type fileMeta struct {
	size   int64
	blocks []BlockLocation
}

// New creates a filesystem with the given block size and replication
// factor (clamped to at least 1).
func New(blockSize int64, replication int) *FileSystem {
	if blockSize <= 0 {
		blockSize = 256 << 20
	}
	if replication < 1 {
		replication = 1
	}
	return &FileSystem{
		files:       make(map[string]*fileMeta),
		byName:      make(map[string]*DataNode),
		blockSize:   blockSize,
		replication: replication,
	}
}

// BlockSize returns the configured block size.
func (fs *FileSystem) BlockSize() int64 { return fs.blockSize }

// AddDataNode registers a DataNode. Duplicate host names error.
func (fs *FileSystem) AddDataNode(dn *DataNode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.byName[dn.Name()]; ok {
		return fmt.Errorf("hdfs: datanode %s already registered", dn.Name())
	}
	fs.datanodes = append(fs.datanodes, dn)
	fs.byName[dn.Name()] = dn
	return nil
}

// DataNodes returns the registered DataNode host names, sorted.
func (fs *FileSystem) DataNodes() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(fs.datanodes))
	for _, dn := range fs.datanodes {
		names = append(names, dn.Name())
	}
	sort.Strings(names)
	return names
}

// placeReplicas picks replication targets: the preferred (client-local)
// host first when registered, then round-robin across the rest.
func (fs *FileSystem) placeReplicas(preferred string) []*DataNode {
	var out []*DataNode
	seen := make(map[string]bool)
	if dn, ok := fs.byName[preferred]; ok {
		out = append(out, dn)
		seen[preferred] = true
	}
	for len(out) < fs.replication && len(out) < len(fs.datanodes) {
		dn := fs.datanodes[fs.nextPlace%len(fs.datanodes)]
		fs.nextPlace++
		if !seen[dn.Name()] {
			out = append(out, dn)
			seen[dn.Name()] = true
		}
	}
	return out
}

// Writer streams a file into HDFS, cutting blocks at the block size.
type Writer struct {
	fs        *FileSystem
	path      string
	preferred string
	buf       []byte // the block being filled; a full one goes to the store
	blocks    []BlockLocation
	size      int64
	closed    bool
	err       error
}

// Create opens a new file for writing. preferredHost biases first-replica
// placement (the writing node, as in HDFS); it may be empty.
func (fs *FileSystem) Create(path, preferredHost string) (*Writer, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.datanodes) == 0 {
		return nil, ErrNoDataNodes
	}
	if _, ok := fs.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	// Reserve the name immediately so concurrent creates collide.
	fs.files[path] = &fileMeta{}
	return &Writer{fs: fs, path: path, preferred: preferredHost}, nil
}

// Write fills the current block from p, cutting it when it reaches the
// block size. The first buffer is the largest one a closed writer left,
// if any, and doubles toward the block size, so a small file never pays
// for a whole block and a large one copies less than a block's worth
// while growing. A buffer the writer fills is the block: the first
// replica stores it by ownership, and the next block starts in a fresh
// block-sized buffer — the allocation a copy into the store would have
// made. Close passes the last buffer on to the next writer. A whole block
// arriving while the buffer is empty is cut from p directly, and copied.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("hdfs: write to closed writer")
	}
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	blockSize := int(w.fs.blockSize)
	for len(p) > 0 && w.err == nil {
		if len(w.buf) == 0 && len(p) >= blockSize {
			w.err = w.cutBlock(p[:blockSize], false)
			p = p[blockSize:]
			continue
		}
		k := min(blockSize-len(w.buf), len(p))
		if cap(w.buf) == 0 {
			w.buf = w.fs.takeBuffer()
		}
		if need := len(w.buf) + k; need > cap(w.buf) {
			w.buf = append(make([]byte, 0, min(blockSize, max(2*cap(w.buf), need))), w.buf...)
		}
		w.buf = append(w.buf, p[:k]...)
		p = p[k:]
		if len(w.buf) == blockSize {
			full := w.buf
			w.buf = make([]byte, 0, blockSize)
			w.err = w.cutBlock(full, true)
		}
	}
	if w.err != nil {
		return 0, w.err
	}
	return n, nil
}

// cutBlock stores data as the file's next block on every replica. owned
// hands data itself to the first replica, whose store then holds it: the
// caller never writes it again. Other replicas, and every replica when
// not owned, store a copy.
func (w *Writer) cutBlock(data []byte, owned bool) error {
	w.fs.mu.Lock()
	w.fs.nextBlock++
	id := w.fs.nextBlock
	targets := w.fs.placeReplicas(w.preferred)
	w.fs.mu.Unlock()
	if len(targets) == 0 {
		return ErrNoDataNodes
	}
	hosts := make([]string, 0, len(targets))
	for i, dn := range targets {
		if i == 0 && owned {
			dn.adoptBlock(id, data)
		} else if err := dn.putBlock(id, data); err != nil {
			return err
		}
		hosts = append(hosts, dn.Name())
	}
	w.blocks = append(w.blocks, BlockLocation{ID: id, Size: int64(len(data)), Hosts: hosts})
	w.size += int64(len(data))
	return nil
}

// Close flushes the final partial block and commits the file metadata.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		if err := w.cutBlock(w.buf, false); err != nil {
			return err
		}
	}
	w.fs.putBuffer(w.buf)
	w.buf = nil
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.fs.files[w.path] = &fileMeta{size: w.size, blocks: w.blocks}
	return nil
}

// WriteFile is a convenience that creates path with the full contents.
func (fs *FileSystem) WriteFile(path, preferredHost string, data []byte) error {
	w, err := fs.Create(path, preferredHost)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// Stat returns file metadata.
func (fs *FileSystem) Stat(path string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	meta, ok := fs.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	blocks := make([]BlockLocation, len(meta.blocks))
	copy(blocks, meta.blocks)
	return FileInfo{Path: path, Size: meta.size, Blocks: blocks}, nil
}

// List returns the sorted paths with the given prefix.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a file and its blocks from all replicas.
func (fs *FileSystem) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(fs.files, path)
	for _, bl := range meta.blocks {
		for _, host := range bl.Hosts {
			if dn, ok := fs.byName[host]; ok {
				dn.deleteBlock(bl.ID)
			}
		}
	}
	return nil
}

// Rename atomically moves src to dst within the namespace. Blocks stay
// where they are — only metadata moves — so the operation is a single
// map update under the namespace lock. It fails with ErrNotFound when
// src does not exist and ErrExists when dst already does, which makes it
// the arbiter for output commit: concurrent attempts renaming their temp
// files onto the same committed path race through this lock, the first
// wins, and every loser gets ErrExists back (first-committer-wins).
func (fs *FileSystem) Rename(src, dst string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, src)
	}
	if _, ok := fs.files[dst]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	delete(fs.files, src)
	fs.files[dst] = meta
	return nil
}

// ReadBlock fetches one block, trying the preferred (local) replica first
// and then the others in order. The returned host is the replica that
// served the read (for locality accounting). The bytes are the DataNode's
// stored block, CRC-verified: a read-only view; clone to mutate.
func (fs *FileSystem) ReadBlock(bl BlockLocation, preferredHost string) ([]byte, string, error) {
	// Resolve the replicas under one lock acquisition, then read unlocked.
	dns := make([]*DataNode, 0, 4) // on the stack up to replication 4
	fs.mu.RLock()
	if dn, ok := fs.byName[preferredHost]; ok && slices.Contains(bl.Hosts, preferredHost) {
		dns = append(dns, dn)
	}
	for _, host := range bl.Hosts {
		if dn, ok := fs.byName[host]; ok && host != preferredHost {
			dns = append(dns, dn)
		}
	}
	fs.mu.RUnlock()
	for _, dn := range dns {
		if data, err := dn.getBlock(bl.ID); err == nil {
			return data, dn.name, nil
		}
	}
	return nil, "", fmt.Errorf("%w: block %d", ErrCorrupt, bl.ID)
}

// Open returns a sequential reader over the whole file.
func (fs *FileSystem) Open(path string) (*Reader, error) {
	info, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	return &Reader{fs: fs, info: info}, nil
}

// Reader streams a file's blocks in order.
type Reader struct {
	fs   *FileSystem
	info FileInfo
	idx  int
	cur  []byte
}

// Read implements io.Reader across block boundaries.
func (r *Reader) Read(p []byte) (int, error) {
	for len(r.cur) == 0 {
		if r.idx >= len(r.info.Blocks) {
			return 0, io.EOF
		}
		data, _, err := r.fs.ReadBlock(r.info.Blocks[r.idx], "")
		if err != nil {
			return 0, err
		}
		r.idx++
		r.cur = data
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// FsckReport summarizes a namespace scan.
type FsckReport struct {
	Files           int
	Blocks          int
	Replicas        int
	MissingReplicas int       // replicas absent from their DataNode
	CorruptReplicas int       // replicas failing their CRC
	LostBlocks      []BlockID // blocks with no healthy replica at all
}

// Healthy reports whether every block has at least one intact replica.
func (r FsckReport) Healthy() bool { return len(r.LostBlocks) == 0 }

// Fsck scans every file's every replica, verifying block checksums —
// the block-scanner pass a NameNode runs to find rot before readers do.
func (fs *FileSystem) Fsck() FsckReport {
	fs.mu.RLock()
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	fs.mu.RUnlock()
	sort.Strings(paths)

	var rep FsckReport
	for _, p := range paths {
		info, err := fs.Stat(p)
		if err != nil {
			continue // deleted concurrently
		}
		rep.Files++
		for _, bl := range info.Blocks {
			rep.Blocks++
			healthy := 0
			for _, host := range bl.Hosts {
				fs.mu.RLock()
				dn, ok := fs.byName[host]
				fs.mu.RUnlock()
				if !ok {
					rep.MissingReplicas++
					continue
				}
				rep.Replicas++
				if _, err := dn.getBlock(bl.ID); err != nil {
					if errors.Is(err, ErrChecksum) {
						rep.CorruptReplicas++
					} else {
						rep.MissingReplicas++
					}
					continue
				}
				healthy++
			}
			if healthy == 0 {
				rep.LostBlocks = append(rep.LostBlocks, bl.ID)
			}
		}
	}
	return rep
}

// ReadFile is a convenience returning the full contents of path: the one
// block of a single-block file as ReadBlock returned it (a read-only
// view; clone to mutate), otherwise a buffer allocated once from the
// file's size. Open is the streaming alternative.
func (fs *FileSystem) ReadFile(path string) ([]byte, error) {
	info, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	if len(info.Blocks) == 1 {
		data, _, err := fs.ReadBlock(info.Blocks[0], "")
		return data, err
	}
	out := make([]byte, 0, info.Size)
	for _, bl := range info.Blocks {
		data, _, err := fs.ReadBlock(bl, "")
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}
