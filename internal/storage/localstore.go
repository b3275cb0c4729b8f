package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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
type LocalStore struct {
	mu      sync.RWMutex
	objects map[string][]byte

	bytesRead    int64
	bytesWritten int64
	reads        int64
	writes       int64
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
	s.bytesWritten += int64(len(data))
	s.writes++
	return nil
}

// Overwrite stores a copy of data under name, replacing any existing
// object (used by the Local FS Merger, which repeatedly folds spill files).
func (s *LocalStore) Overwrite(name string, data []byte) {
	s.OverwriteOwned(name, slices.Clone(data))
}

// OverwriteOwned is Overwrite by ownership transfer: the store keeps data
// itself instead of a copy, so the caller must not read or write the
// slice after the call. It is for producers that built the buffer for
// this one purpose (a map task's freshly encoded output run); everything
// else uses the copying Put and Overwrite.
func (s *LocalStore) OverwriteOwned(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[name] = data
	s.bytesWritten += int64(len(data))
	s.writes++
}

// Get returns a copy of the object. Every Get counts as disk traffic; the
// PrefetchCache exists precisely to avoid calls into here.
func (s *LocalStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.bytesRead += int64(len(data))
	s.reads++
	return cp, nil
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytesRead, s.bytesWritten, s.reads, s.writes
}

// ResetCounters zeroes the traffic counters (between experiment phases).
func (s *LocalStore) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesRead, s.bytesWritten, s.reads, s.writes = 0, 0, 0, 0
}
