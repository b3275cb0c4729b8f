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
// blocks as byte slices.
//
// A stored object is immutable from the moment it is stored: nothing
// writes a stored slice again, writers replace the map entry. Get
// therefore returns the stored slice itself, a value any number of
// readers may share and hold for as long as they like — after Overwrite
// or Delete of the name it still reads the version it was, and the
// garbage collector frees it with its last reader. Readers must treat it
// as read-only and clone to mutate; the lock guards only the map.
//
// A pinned object (OverwritePinned) holds bytes the store does not own —
// a map output run encoded straight into registered memory a shuffle
// engine reuses once its owner lets go. The store holds one reference to
// such an object and drops it, through Pinned.Release, when the name is
// overwritten, deleted or demoted; Get never lends its bytes.
type LocalStore struct {
	mu      sync.RWMutex
	objects map[string]object
}

// object is one stored object: its bytes and, for a pinned object, the
// owner the store releases them through (nil when the store owns them).
type object struct {
	data  []byte
	owner Pinned
}

// Pinned owns the bytes of a pinned object. The store calls Release
// exactly once, after it has let go of the object, outside its lock.
type Pinned interface {
	Release()
}

// NewLocalStore returns an empty store.
func NewLocalStore() *LocalStore {
	return &LocalStore{objects: make(map[string]object)}
}

// replace stores obj under name and returns the object it replaced.
// Caller holds s.mu.
func (s *LocalStore) replace(name string, obj object) object {
	old := s.objects[name]
	s.objects[name] = obj
	return old
}

// release drops the store's reference to a pinned object it has let go
// of. Called without s.mu.
func (o object) release() {
	if o.owner != nil {
		o.owner.Release()
	}
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
	s.replace(name, object{data: cp})
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
	s.OverwritePinned(name, data, nil)
}

// OverwritePinned stores data under name as a pinned object: the store
// neither copies nor owns the bytes, it holds the caller's reference to
// owner and drops it once the name no longer holds this object. The
// caller must never write data again. A nil owner is OverwriteOwned.
func (s *LocalStore) OverwritePinned(name string, data []byte, owner Pinned) {
	s.mu.Lock()
	old := s.replace(name, object{data: data, owner: owner})
	s.mu.Unlock()
	old.release()
}

// Get returns the stored object itself, not a copy: a read-only view
// with its capacity clamped to its length, valid for as long as the
// caller holds it whatever happens to the name afterwards. Every Get
// stands for a disk read; the PrefetchCache exists precisely to avoid
// calls into here. A pinned object is the exception: its bytes are
// reused once its owner lets go, so Get returns a private copy, taken
// while the store still holds them — what a disk read costs anyway.
func (s *LocalStore) Get(name string) ([]byte, error) {
	s.mu.RLock()
	obj, ok := s.objects[name]
	data := s.lend(obj, ok)
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return data, nil
}

// GetKey is Get for a name built in a byte slice, such as a caller's
// scratch buffer: the lookup neither copies nor keeps it.
func (s *LocalStore) GetKey(name []byte) ([]byte, error) {
	s.mu.RLock()
	obj, ok := s.objects[string(name)]
	data := s.lend(obj, ok)
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, string(name))
	}
	return data, nil
}

// lend returns the bytes Get hands out for obj.
// Caller holds s.mu, read-locked.
func (s *LocalStore) lend(obj object, ok bool) []byte {
	if !ok {
		return nil
	}
	data := obj.data
	if obj.owner != nil {
		data = slices.Clone(data)
	}
	return data[:len(data):len(data)]
}

// Owner returns the owner of name's bytes if it is a pinned object, nil
// otherwise. It is not a read: it lends no bytes.
func (s *LocalStore) Owner(name string) Pinned {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.objects[name].owner
}

// Demote replaces name's object with a copy the store owns if name still
// holds owner's pinned object, then drops the store's reference to owner,
// and reports whether it did. The bytes stay stored and the owner's
// memory can go back: what a cache does with a pinned run it is giving up.
// It is neither a read nor a write.
func (s *LocalStore) Demote(name string, owner Pinned) bool {
	s.mu.Lock()
	obj, ok := s.objects[name]
	ok = ok && obj.owner == owner
	if ok {
		s.objects[name] = object{data: slices.Clone(obj.data)}
	}
	s.mu.Unlock()
	if ok {
		owner.Release()
	}
	return ok
}

// Size returns the stored length of name. It is not a read: it lends no
// bytes.
func (s *LocalStore) Size(name string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(obj.data)), nil
}

// Delete removes name; deleting a missing object is an error so task
// cleanup bugs surface.
func (s *LocalStore) Delete(name string) error {
	s.mu.Lock()
	obj, ok := s.objects[name]
	delete(s.objects, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	obj.release()
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
