package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"rdmamr/internal/alloctest"
	"rdmamr/internal/storage"
)

func cluster(t *testing.T, nodes int, blockSize int64, repl int) *FileSystem {
	t.Helper()
	fs := New(blockSize, repl)
	for i := 0; i < nodes; i++ {
		if err := fs.AddDataNode(NewDataNode(fmt.Sprintf("node%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := cluster(t, 3, 64, 1)
	data := make([]byte, 300) // 4 full blocks + 1 partial
	rand.New(rand.NewSource(1)).Read(data)
	if err := fs.WriteFile("/input/part-0", "node0", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/input/part-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestBlockSplitting(t *testing.T) {
	fs := cluster(t, 2, 100, 1)
	data := make([]byte, 250)
	_ = fs.WriteFile("/f", "", data)
	info, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(info.Blocks))
	}
	if info.Blocks[0].Size != 100 || info.Blocks[2].Size != 50 {
		t.Fatalf("block sizes: %+v", info.Blocks)
	}
	if info.Size != 250 {
		t.Fatalf("size = %d", info.Size)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := cluster(t, 1, 64, 1)
	if err := fs.WriteFile("/empty", "", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("read empty: %v %v", got, err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs := cluster(t, 1, 64, 1)
	_ = fs.WriteFile("/f", "", []byte("x"))
	if _, err := fs.Create("/f", ""); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateWithoutDataNodes(t *testing.T) {
	fs := New(64, 1)
	if _, err := fs.Create("/f", ""); !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := cluster(t, 1, 64, 1)
	if _, err := fs.Open("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplicationPlacement(t *testing.T) {
	fs := cluster(t, 4, 64, 3)
	_ = fs.WriteFile("/f", "node2", make([]byte, 64))
	info, _ := fs.Stat("/f")
	bl := info.Blocks[0]
	if len(bl.Hosts) != 3 {
		t.Fatalf("replicas = %d, want 3", len(bl.Hosts))
	}
	if bl.Hosts[0] != "node2" {
		t.Fatalf("first replica %q, want local node2", bl.Hosts[0])
	}
	seen := map[string]bool{}
	for _, h := range bl.Hosts {
		if seen[h] {
			t.Fatalf("duplicate replica host %s", h)
		}
		seen[h] = true
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	fs := cluster(t, 2, 64, 3)
	_ = fs.WriteFile("/f", "", make([]byte, 10))
	info, _ := fs.Stat("/f")
	if got := len(info.Blocks[0].Hosts); got != 2 {
		t.Fatalf("replicas = %d, want 2 (cluster size)", got)
	}
}

func TestPlacementSpreadsBlocks(t *testing.T) {
	fs := cluster(t, 4, 10, 1)
	_ = fs.WriteFile("/f", "", make([]byte, 100)) // 10 blocks
	info, _ := fs.Stat("/f")
	hosts := map[string]int{}
	for _, bl := range info.Blocks {
		hosts[bl.Hosts[0]]++
	}
	if len(hosts) < 3 {
		t.Fatalf("blocks concentrated on %d nodes: %v", len(hosts), hosts)
	}
}

func TestReadBlockPrefersLocalReplica(t *testing.T) {
	fs := cluster(t, 3, 64, 2)
	_ = fs.WriteFile("/f", "node1", make([]byte, 64))
	info, _ := fs.Stat("/f")
	bl := info.Blocks[0]
	if len(bl.Hosts) < 2 {
		t.Skip("need 2 replicas")
	}
	other := bl.Hosts[1]
	_, served, err := fs.ReadBlock(bl, other)
	if err != nil {
		t.Fatal(err)
	}
	if served != other {
		t.Fatalf("served from %s, want preferred %s", served, other)
	}
}

func TestReadBlockFallsBackAcrossReplicas(t *testing.T) {
	storeA := storage.NewLocalStore()
	fs := New(64, 2)
	_ = fs.AddDataNode(NewDataNode("a", storeA))
	_ = fs.AddDataNode(NewDataNode("b", nil))
	_ = fs.WriteFile("/f", "a", []byte("data!"))
	info, _ := fs.Stat("/f")
	// Simulate disk loss on node a.
	for _, name := range storeA.List("blk_") {
		_ = storeA.Delete(name)
	}
	got, served, err := fs.ReadBlock(info.Blocks[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	if served != "b" || string(got) != "data!" {
		t.Fatalf("served=%s data=%q", served, got)
	}
}

func TestReadBlockAllReplicasLost(t *testing.T) {
	store := storage.NewLocalStore()
	fs := New(64, 1)
	_ = fs.AddDataNode(NewDataNode("a", store))
	_ = fs.WriteFile("/f", "a", []byte("data"))
	info, _ := fs.Stat("/f")
	for _, name := range store.List("blk_") {
		_ = store.Delete(name)
	}
	if _, _, err := fs.ReadBlock(info.Blocks[0], "a"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelete(t *testing.T) {
	fs := cluster(t, 2, 64, 2)
	_ = fs.WriteFile("/f", "", make([]byte, 128))
	if err := fs.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatal("file still visible")
	}
	if err := fs.Delete("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// Blocks must be reclaimed from datanode stores.
	for _, name := range fs.DataNodes() {
		dn := fs.byName[name]
		if got := dn.Store().List("blk_"); len(got) != 0 {
			t.Fatalf("%s still holds blocks: %v", name, got)
		}
	}
}

func TestList(t *testing.T) {
	fs := cluster(t, 1, 64, 1)
	_ = fs.WriteFile("/out/part-1", "", nil)
	_ = fs.WriteFile("/out/part-0", "", nil)
	_ = fs.WriteFile("/in/x", "", nil)
	got := fs.List("/out/")
	if len(got) != 2 || got[0] != "/out/part-0" || got[1] != "/out/part-1" {
		t.Fatalf("list = %v", got)
	}
}

func TestWriterAfterClose(t *testing.T) {
	fs := cluster(t, 1, 64, 1)
	w, _ := fs.Create("/f", "")
	_ = w.Close()
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestReaderIsIOReader(t *testing.T) {
	fs := cluster(t, 2, 7, 1) // awkward block size to cross boundaries
	data := []byte("the quick brown fox jumps over the lazy dog")
	_ = fs.WriteFile("/f", "", data)
	r, _ := fs.Open("/f")
	var got bytes.Buffer
	if _, err := io.CopyBuffer(&got, r, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(data) {
		t.Fatalf("read %q", got.String())
	}
}

func TestDuplicateDataNode(t *testing.T) {
	fs := New(64, 1)
	_ = fs.AddDataNode(NewDataNode("x", nil))
	if err := fs.AddDataNode(NewDataNode("x", nil)); err == nil {
		t.Fatal("duplicate datanode accepted")
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs := cluster(t, 4, 128, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/f%d", i)
			data := bytes.Repeat([]byte{byte(i)}, 300)
			if err := fs.WriteFile(path, "", data); err != nil {
				t.Errorf("write %s: %v", path, err)
				return
			}
			got, err := fs.ReadFile(path)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("read %s mismatch: %v", path, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestDefaultsClamped(t *testing.T) {
	fs := New(0, 0)
	if fs.BlockSize() != 256<<20 {
		t.Fatalf("default block size: %d", fs.BlockSize())
	}
	if fs.replication != 1 {
		t.Fatalf("default replication: %d", fs.replication)
	}
}

func TestChecksumDetectsBitRot(t *testing.T) {
	store := storage.NewLocalStore()
	fs := New(64, 2)
	_ = fs.AddDataNode(NewDataNode("a", store))
	_ = fs.AddDataNode(NewDataNode("b", nil))
	_ = fs.WriteFile("/f", "a", []byte("precious data"))
	info, _ := fs.Stat("/f")
	// Flip a bit in node a's replica behind HDFS's back: in a clone, for
	// what Get returns is the stored block itself.
	key := info.Blocks[0].ID.storeKey()
	data, _ := store.Get(key)
	data = bytes.Clone(data)
	data[0] ^= 0x01
	store.OverwriteOwned(key, data)
	// Reads must skip the rotten replica and serve from b.
	got, served, err := fs.ReadBlock(info.Blocks[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	if served != "b" || string(got) != "precious data" {
		t.Fatalf("served=%s got=%q", served, got)
	}
}

// TestChecksumCatchesScribblingBorrower: ReadBlock lends the stored block,
// so a reader that breaks the read-only rule damages the replica itself —
// and the CRC verified on every block read is what notices: the next read
// skips that replica, and Fsck counts it corrupt.
func TestChecksumCatchesScribblingBorrower(t *testing.T) {
	fs := New(64, 2)
	_ = fs.AddDataNode(NewDataNode("a", nil))
	_ = fs.AddDataNode(NewDataNode("b", nil))
	_ = fs.WriteFile("/f", "a", []byte("precious data"))
	info, _ := fs.Stat("/f")
	lent, served, err := fs.ReadBlock(info.Blocks[0], "a")
	if err != nil || served != "a" {
		t.Fatalf("served=%s err=%v", served, err)
	}
	lent[0] ^= 0x01 // what no reader may do
	got, served, err := fs.ReadBlock(info.Blocks[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	if served != "b" || string(got) != "precious data" {
		t.Fatalf("served=%s got=%q", served, got)
	}
	if rep := fs.Fsck(); rep.CorruptReplicas != 1 || !rep.Healthy() {
		t.Fatalf("fsck after a scribble: %+v", rep)
	}
}

func TestFsckHealthy(t *testing.T) {
	fs := cluster(t, 3, 64, 2)
	_ = fs.WriteFile("/a", "", make([]byte, 150))
	_ = fs.WriteFile("/b", "", make([]byte, 10))
	rep := fs.Fsck()
	if !rep.Healthy() || rep.Files != 2 || rep.Blocks != 4 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.CorruptReplicas != 0 || rep.MissingReplicas != 0 {
		t.Fatalf("phantom damage: %+v", rep)
	}
}

func TestFsckFindsCorruptionAndLoss(t *testing.T) {
	storeA := storage.NewLocalStore()
	fs := New(64, 2)
	_ = fs.AddDataNode(NewDataNode("a", storeA))
	_ = fs.AddDataNode(NewDataNode("b", nil))
	_ = fs.WriteFile("/f", "a", []byte("block zero data"))
	info, _ := fs.Stat("/f")
	key := info.Blocks[0].ID.storeKey()
	data, _ := storeA.Get(key)
	data[3] ^= 0xFF
	storeA.Overwrite(key, data)
	rep := fs.Fsck()
	if rep.CorruptReplicas != 1 {
		t.Fatalf("corrupt = %d: %+v", rep.CorruptReplicas, rep)
	}
	if !rep.Healthy() {
		t.Fatalf("one good replica remains, but: %+v", rep)
	}
	// Now destroy the healthy replica too.
	fs.mu.RLock()
	dnB := fs.byName["b"]
	fs.mu.RUnlock()
	dnB.deleteBlock(info.Blocks[0].ID)
	rep = fs.Fsck()
	if rep.Healthy() || len(rep.LostBlocks) != 1 {
		t.Fatalf("lost block not detected: %+v", rep)
	}
}

func TestRenameMovesContentAtomically(t *testing.T) {
	fs := cluster(t, 2, 64, 1)
	data := make([]byte, 200)
	rand.New(rand.NewSource(7)).Read(data)
	if err := fs.WriteFile("/out/_tmp/attempt-0", "node0", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/out/_tmp/attempt-0", "/out/part-r-00000"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/out/_tmp/attempt-0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("source survived rename: %v", err)
	}
	got, err := fs.ReadFile("/out/part-r-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content changed across rename")
	}
}

func TestRenameErrors(t *testing.T) {
	fs := cluster(t, 1, 64, 1)
	if err := fs.Rename("/missing", "/dst"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rename of missing src: %v", err)
	}
	_ = fs.WriteFile("/a", "", []byte("one"))
	_ = fs.WriteFile("/b", "", []byte("two"))
	if err := fs.Rename("/a", "/b"); !errors.Is(err, ErrExists) {
		t.Fatalf("rename onto existing dst: %v", err)
	}
	// Loser's data must be untouched and still addressable at /a.
	got, err := fs.ReadFile("/a")
	if err != nil || string(got) != "one" {
		t.Fatalf("src disturbed by failed rename: %q %v", got, err)
	}
}

func TestRenameFirstCommitterWins(t *testing.T) {
	fs := cluster(t, 2, 64, 1)
	const n = 8
	for i := 0; i < n; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/out/_tmp/attempt-%d", i), "", []byte(fmt.Sprintf("attempt %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wins := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wins[i] = fs.Rename(fmt.Sprintf("/out/_tmp/attempt-%d", i), "/out/part-r-00000") == nil
		}(i)
	}
	wg.Wait()
	winners := 0
	for _, w := range wins {
		if w {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("want exactly one committer, got %d", winners)
	}
}

// TestChunkedWritesMatchSingleWrite feeds a Writer the way a reduce task
// does — 64 KiB flushes — and requires the blocks a single Write of the
// same bytes produces, at no more than twice the payload in allocations
// (one copy into each stored block, plus the writer's one block buffer).
// Re-growing the buffer for every flush cost about four times the payload.
func TestChunkedWritesMatchSingleWrite(t *testing.T) {
	const blockSize, fileSize, chunk = 1 << 20, 8<<20 + 12345, 64 << 10
	fs := cluster(t, 3, blockSize, 1)
	data := make([]byte, fileSize)
	rand.New(rand.NewSource(5)).Read(data)

	if err := fs.WriteFile("/whole", "node1", data); err != nil {
		t.Fatal(err)
	}
	allocated := alloctest.Bytes(1, func() {
		w, err := fs.Create("/chunked", "node1")
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += chunk {
			if _, err := w.Write(data[off:min(off+chunk, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocated > 2*fileSize {
		t.Errorf("chunked write of %d bytes allocated %d, budget %d", fileSize, allocated, 2*fileSize)
	}

	whole, err := fs.Stat("/whole")
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := fs.Stat("/chunked")
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Size != whole.Size || len(chunked.Blocks) != len(whole.Blocks) {
		t.Fatalf("chunked: %d bytes in %d blocks, whole: %d bytes in %d blocks",
			chunked.Size, len(chunked.Blocks), whole.Size, len(whole.Blocks))
	}
	for i := range whole.Blocks {
		a, _, err := fs.ReadBlock(whole.Blocks[i], "")
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := fs.ReadBlock(chunked.Blocks[i], "")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("block %d differs between the chunked and the single write (%d vs %d bytes)", i, len(b), len(a))
		}
	}
}

// TestWriterBuffersAllocBudget: a writer starts from the buffer a closed
// one left, so once one file has been written, writing several more
// multi-block files in 8 KiB pieces allocates the bytes stored — each
// block copied once into its DataNode — and a sixteenth more for names,
// metadata and the growth of the namespace's maps (6 KB a file measured).
// Growing a fresh buffer by doubling for every file cost another 124 KiB
// a file here.
func TestWriterBuffersAllocBudget(t *testing.T) {
	const blockSize, fileSize, chunk, files = 64 << 10, 300 << 10, 8 << 10, 4
	fs := cluster(t, 2, blockSize, 1)
	data := make([]byte, fileSize)
	rand.New(rand.NewSource(12)).Read(data)
	n := 0
	write := func() {
		n++
		w, err := fs.Create(fmt.Sprintf("/f%d", n), "node1")
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += chunk {
			if _, err := w.Write(data[off:min(off+chunk, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm: leaves a block-sized buffer behind
	allocated := alloctest.Bytes(3, func() {
		for i := 0; i < files; i++ {
			write()
		}
	})
	if budget := uint64(files * (fileSize + fileSize/16)); allocated > budget {
		t.Errorf("%d files of %d bytes allocated %d, budget %d (the bytes stored and a sixteenth)", files, fileSize, allocated, budget)
	}
	got, err := fs.ReadFile(fmt.Sprintf("/f%d", n))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("last file read back wrong (err=%v)", err)
	}
}

// TestWriterHandsFullBlocksToStore: a block the writer fills in its own
// buffer is that buffer in the first replica's store — no copy — while the
// tail block, the second replica and every block of a later file are
// copies or fresh buffers, so nothing the writer or its successor writes
// reaches a stored block. Every block's CRC still verifies.
func TestWriterHandsFullBlocksToStore(t *testing.T) {
	const blockSize, piece = 256 << 10, 64 << 10
	const fileSize = 3*blockSize + blockSize/2
	for _, repl := range []int{1, 2} {
		t.Run(fmt.Sprintf("replication %d", repl), func(t *testing.T) {
			fs := cluster(t, 3, blockSize, repl)
			data := make([]byte, fileSize)
			rand.New(rand.NewSource(13)).Read(data)
			stored := func(bl BlockLocation, replica int) []byte {
				t.Helper()
				b, err := fs.byName[bl.Hosts[replica]].store.Get(bl.ID.storeKey())
				if err != nil {
					t.Fatal(err)
				}
				return b
			}

			w, err := fs.Create("/f", "node1")
			if err != nil {
				t.Fatal(err)
			}
			var filled [][]byte // the writer's buffer as each full block was cut
			for off := 0; off < len(data); off += piece {
				before, cut := w.buf, len(w.blocks)
				if _, err := w.Write(data[off : off+piece]); err != nil {
					t.Fatal(err)
				}
				if len(w.blocks) > cut {
					filled = append(filled, before)
				}
			}
			tail := w.buf
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// A second file starts in the buffer the first one left.
			if err := fs.WriteFile("/g", "node1", bytes.Repeat([]byte{0xee}, fileSize)); err != nil {
				t.Fatal(err)
			}

			info, err := fs.Stat("/f")
			if err != nil {
				t.Fatal(err)
			}
			if len(info.Blocks) != 4 || len(filled) != 3 {
				t.Fatalf("%d blocks, %d cut from a full buffer; want 4 and 3", len(info.Blocks), len(filled))
			}
			for i, bl := range info.Blocks {
				first := stored(bl, 0)
				if want := data[i*blockSize : min((i+1)*blockSize, fileSize)]; !bytes.Equal(first, want) {
					t.Fatalf("block %d changed after it was stored", i)
				}
				handed := i < len(filled)
				if handed && &first[0] != &filled[i][0] {
					t.Errorf("block %d: the first replica stores a copy, not the writer's full buffer", i)
				}
				if !handed && &first[0] == &tail[0] {
					t.Errorf("tail block %d: the store holds the writer's buffer, which the next writer reuses", i)
				}
				if repl == 2 {
					second := stored(bl, 1)
					if !bytes.Equal(second, first) || &second[0] == &first[0] {
						t.Errorf("block %d: the second replica is not a copy of the first", i)
					}
				}
			}
			got, err := fs.ReadFile("/f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("round trip mismatch (err=%v)", err)
			}
			if rep := fs.Fsck(); !rep.Healthy() || rep.CorruptReplicas != 0 || rep.Replicas != 2*4*repl {
				t.Fatalf("fsck: %+v", rep)
			}
		})
	}
}

// TestWriteStraddlingBlockBoundaries covers the writer's three ways in: a
// tail that completes a buffered block, whole blocks taken straight from
// the caller's slice, and a remainder left buffered for Close.
func TestWriteStraddlingBlockBoundaries(t *testing.T) {
	fs := cluster(t, 2, 100, 1)
	data := make([]byte, 730)
	rand.New(rand.NewSource(6)).Read(data)
	w, err := fs.Create("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range [][2]int{{0, 30}, {30, 450}, {450, 500}, {500, 500}, {500, 730}} {
		if n, err := w.Write(data[cut[0]:cut[1]]); err != nil || n != cut[1]-cut[0] {
			t.Fatalf("Write(%v) = %d, %v", cut, n, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Blocks) != 8 || info.Blocks[6].Size != 100 || info.Blocks[7].Size != 30 {
		t.Fatalf("blocks: %+v", info.Blocks)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch (err=%v)", err)
	}
}

// TestReadFileAllocatesOnce bounds ReadFile of a multi-block file at its
// one result buffer: blocks are read in place, not copied first, and the
// result does not grow by doubling.
func TestReadFileAllocatesOnce(t *testing.T) {
	const blockSize, fileSize = 1 << 20, 8<<20 + 999
	fs := cluster(t, 2, blockSize, 1)
	data := make([]byte, fileSize)
	rand.New(rand.NewSource(8)).Read(data)
	if err := fs.WriteFile("/f", "", data); err != nil {
		t.Fatal(err)
	}
	var got []byte
	allocated := alloctest.Bytes(1, func() {
		var err error
		if got, err = fs.ReadFile("/f"); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, data) {
		t.Fatal("ReadFile mismatch")
	}
	if budget := uint64(fileSize + fileSize/4); allocated > budget {
		t.Errorf("ReadFile of %d bytes allocated %d, budget %d", fileSize, allocated, budget)
	}
}

// TestReadBlockAllocBudget: reading a 1 MiB block costs its store key and
// nothing block-sized — local or remote replica, and through ReadFile when
// the block is the whole file. The bytes are the DataNode's own.
func TestReadBlockAllocBudget(t *testing.T) {
	const blockSize = 1 << 20
	fs := cluster(t, 3, blockSize, 2)
	data := make([]byte, blockSize)
	rand.New(rand.NewSource(9)).Read(data)
	if err := fs.WriteFile("/f", "node1", data); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/f")
	if err != nil || len(info.Blocks) != 1 {
		t.Fatalf("stat: %+v %v", info, err)
	}
	bl := info.Blocks[0]
	for _, preferred := range []string{bl.Hosts[0], bl.Hosts[1], "", "elsewhere"} {
		var got []byte
		allocated := alloctest.Bytes(3, func() {
			if got, _, err = fs.ReadBlock(bl, preferred); err != nil {
				t.Fatal(err)
			}
		})
		if allocated >= 1<<10 {
			t.Errorf("ReadBlock(preferred %q) of a %d-byte block allocated %d bytes, budget 1 KiB", preferred, blockSize, allocated)
		}
		if !bytes.Equal(got, data) || cap(got) != len(got) {
			t.Fatalf("ReadBlock(preferred %q): wrong bytes or cap %d != len %d", preferred, cap(got), len(got))
		}
	}
	stored, err := fs.byName[bl.Hosts[0]].store.Get(bl.ID.storeKey())
	if err != nil {
		t.Fatal(err)
	}
	allocated := alloctest.Bytes(1, func() {
		got, err := fs.ReadFile("/f")
		if err != nil || &got[0] != &stored[0] {
			t.Errorf("ReadFile of a one-block file: err=%v, same slice as the stored block: %v", err, err == nil && &got[0] == &stored[0])
		}
	})
	if allocated >= 2<<10 {
		t.Errorf("ReadFile of a one-block file allocated %d bytes, budget 2 KiB", allocated)
	}
}
