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
// Stored slices are never modified in place — writers replace the map
// entry — so readers share the read lock; the traffic counters are
// atomics so that counting a read does not need the write lock.
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
// itself instead of a copy, so the caller must not read or write the
// slice after the call. It is for producers that built the buffer for
// this one purpose (a map task's freshly encoded output run); everything
// else uses the copying Put and Overwrite.
func (s *LocalStore) OverwriteOwned(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[name] = data
	s.bytesWritten.Add(int64(len(data)))
	s.writes.Add(1)
}

// Get returns a copy of the object. Every Get counts as disk traffic; the
// PrefetchCache exists precisely to avoid calls into here.
func (s *LocalStore) Get(name string) ([]byte, error) {
	var cp []byte
	err := s.View(name, func(data []byte) {
		cp = make([]byte, len(data))
		copy(cp, data)
	})
	return cp, err
}

// View lends the stored object to fn without copying it, and counts as a
// read exactly as Get does. The slice is the store's own: fn must not
// modify it and must not keep it, or any part of it, after returning —
// the bytes are only guaranteed to stay this object's while fn runs,
// which it does under the store's read lock, so it must not call back
// into the store's writers either. It is for readers that copy the bytes
// somewhere of their own choosing (a registered block) and would
// otherwise pay for Get's copy first.
func (s *LocalStore) View(name string, fn func(data []byte)) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	s.bytesRead.Add(int64(len(data)))
	s.reads.Add(1)
	fn(data)
	return nil
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
