package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Store errors.
var (
	ErrNotFound = errors.New("storage: object not found")
	ErrExists   = errors.New("storage: object already exists")
)

// LocalStore is the functional-plane local filesystem: a concurrency-safe
// named-object store holding map output files, spill runs, and DataNode
// blocks as byte slices. It tracks read/write byte counters so tests and
// the caching experiments can observe disk traffic (PrefetchCache hits
// must NOT touch the store).
//
// A stored object is immutable from the moment it is stored: nothing
// writes a stored slice again, writers replace the map entry. Get
// therefore returns the stored slice itself, a value any number of
// readers may share and hold for as long as they like — after Overwrite
// or Delete of the name it still reads the version it was, and the
// garbage collector frees it with its last reader. Readers must treat it
// as read-only and clone to mutate; the lock guards only the map, and the
// traffic counters are atomics so that counting a read does not need the
// write lock.
type LocalStore struct {
	mu      sync.RWMutex
	objects map[string][]byte

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64
}

// NewLocalStore returns an empty store.
func NewLocalStore() *LocalStore {
	return &LocalStore{objects: make(map[string][]byte)}
}

// Put stores data under name, failing if the name exists (map output files
// are write-once). The data is copied.
func (s *LocalStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.objects[name] = cp
	s.bytesWritten.Add(int64(len(data)))
	s.writes.Add(1)
	return nil
}

// Overwrite stores a copy of data under name, replacing any existing
// object (used by the Local FS Merger, which repeatedly folds spill files).
func (s *LocalStore) Overwrite(name string, data []byte) {
	s.OverwriteOwned(name, slices.Clone(data))
}

// OverwriteOwned is Overwrite by ownership transfer: the store keeps data
// itself instead of a copy, and from then on it is a stored object, so
// the caller must never write the slice again. It is for producers that
// built the buffer for this one purpose (a freshly encoded or merged
// run); everything else uses the copying Put and Overwrite.
func (s *LocalStore) OverwriteOwned(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[name] = data
	s.bytesWritten.Add(int64(len(data)))
	s.writes.Add(1)
}

// Get returns the stored object itself, not a copy: a read-only view
// with its capacity clamped to its length, valid for as long as the
// caller holds it whatever happens to the name afterwards. Every Get
// counts as disk traffic; the PrefetchCache exists precisely to avoid
// calls into here.
func (s *LocalStore) Get(name string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	s.bytesRead.Add(int64(len(data)))
	s.reads.Add(1)
	return data[:len(data):len(data)], nil
}

// Size returns the stored length of name without counting as a read.
func (s *LocalStore) Size(name string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(data)), nil
}

// Exists reports whether name is stored.
func (s *LocalStore) Exists(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[name]
	return ok
}

// Delete removes name; deleting a missing object is an error so task
// cleanup bugs surface.
func (s *LocalStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.objects, name)
	return nil
}

// List returns the sorted names with the given prefix.
func (s *LocalStore) List(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var names []string
	for n := range s.objects {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// TotalBytes returns the sum of stored object sizes.
func (s *LocalStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, d := range s.objects {
		total += int64(len(d))
	}
	return total
}

// Counters reports cumulative traffic: bytes read, bytes written, read
// ops, write ops.
func (s *LocalStore) Counters() (bytesRead, bytesWritten, reads, writes int64) {
	return s.bytesRead.Load(), s.bytesWritten.Load(), s.reads.Load(), s.writes.Load()
}

// ResetCounters zeroes the traffic counters (between experiment phases).
func (s *LocalStore) ResetCounters() {
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
	s.reads.Store(0)
	s.writes.Store(0)
}
