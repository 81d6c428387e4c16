package par

import "sync"

// Memo builds one value per key and keeps it: the SOCS kernel sets, the
// serving layer's setups each cost seconds to build and are asked for by many goroutines at once. Builds
// are single-flight per key — concurrent callers of one key share one
// build — while distinct keys build in parallel. A build that returns an
// error or panics is not kept: the callers that waited on it see its
// error (or run it again, after a panic) and the next call retries. The
// zero Memo is ready to use and safe for concurrent use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done     chan struct{} // closed once build has returned or panicked
	v        V
	err      error
	returned bool // build returned, i.e. did not panic
}

// Do returns the value kept under key, calling build for it when there is
// none; built reports whether this call ran build.
func (m *Memo[K, V]) Do(key K, build func() (V, error)) (v V, built bool, err error) {
	if key != key {
		// A NaN inside the key equals nothing, itself included: the
		// entry could be neither found again nor deleted.
		v, err = build()
		return v, true, err
	}
	m.mu.Lock()
	e := m.m[key]
	if e != nil {
		m.mu.Unlock()
		<-e.done
		if !e.returned {
			return m.Do(key, build)
		}
		return e.v, false, e.err
	}
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e = &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = e
	m.mu.Unlock()
	defer func() {
		if !e.returned || e.err != nil {
			m.mu.Lock()
			delete(m.m, key)
			m.mu.Unlock()
		}
		close(e.done)
	}()
	e.v, e.err = build()
	e.returned = true
	return e.v, true, e.err
}
