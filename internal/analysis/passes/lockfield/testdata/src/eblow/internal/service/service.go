// Fixture for lockfield: `// guarded by <mu>` and `// immutable after
// construction` field annotations are enforced wherever they appear.
package service

import "sync"

type Manager struct {
	mu sync.Mutex
	// guarded by mu
	jobs map[string]int
	// immutable after construction
	name string
}

func NewManager(name string) *Manager {
	m := &Manager{name: name}
	m.jobs = make(map[string]int) // constructor owns the fresh value: allowed
	return m
}

func (m *Manager) Add(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[id] = 1 // function locks m.mu: allowed
}

func (m *Manager) Racy(id string) int {
	return m.jobs[id] // want `field Manager.jobs is guarded by mu but this function never locks m.mu`
}

// addLocked asserts via its name suffix that callers hold the lock.
func (m *Manager) addLocked(id string) {
	m.jobs[id] = 2
}

func (m *Manager) Rename(n string) {
	m.name = n // want `field Manager.name is immutable after construction but written outside its constructor`
}

func (m *Manager) Name() string {
	return m.name // reading an immutable field needs no lock: allowed
}

func (m *Manager) Deferred(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer func() {
		m.jobs[id] = 3 // deferred closure runs before the unlock: inherits the lock
	}()
}

func (m *Manager) Spawn(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	go func() {
		m.jobs[id] = 4 // want `field Manager.jobs is guarded by mu but this function never locks m.mu`
	}()
}

func (m *Manager) Waived() int {
	//eblow:nondet-ok approximate stats probe; a torn read is acceptable here
	return len(m.jobs)
}

// Broken demonstrates that an annotation naming a non-existent mutex is
// itself a diagnostic rather than silently unenforced.
type Broken struct {
	// guarded by missing
	data int // want `'guarded by missing' names no mutex field of Broken`
}

// Log is generic, like internal/journal's: fields reached through a
// Log[R] receiver are checked like any other.
type Log[R any] struct {
	mu sync.Mutex
	// guarded by mu
	recs []R
}

func (l *Log[R]) Append(r R) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, r)
}

func (l *Log[R]) Len() int {
	return len(l.recs) // want `field Log.recs is guarded by mu but this function never locks l.mu`
}
