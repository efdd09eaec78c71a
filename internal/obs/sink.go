package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// LineSink is a swappable JSONL export that never blocks its callers:
// Write marshals on the calling goroutine and queues the line for a
// single background drainer, which calls the installed writer
// serially, so lines never interleave and a slow writer (a -trace-out
// or -events-out file) never stalls a request path. Lines that would
// block are dropped and counted instead. The zero value has no writer
// installed. TraceRecorder and wideevent.Journal both export through
// one.
type LineSink struct {
	mu      sync.Mutex                // serializes Set swaps, not line writes
	cur     atomic.Pointer[sinkState] // guarded by mu (writes)
	dropped atomic.Uint64
}

// sinkBufferLines bounds how many marshalled lines may be queued for
// the drainer before Write starts dropping.
const sinkBufferLines = 1024

// sinkState is one installed writer: its line queue, a quit signal for
// Set, and done closed once the drainer has flushed and exited.
type sinkState struct {
	ch   chan []byte
	quit chan struct{}
	done chan struct{}
}

// drain feeds queued lines to w until quit, then flushes whatever is
// still buffered and exits.
func (st *sinkState) drain(w func(line []byte)) {
	defer close(st.done)
	for {
		select {
		case line := <-st.ch:
			w(line)
		case <-st.quit:
			for {
				select {
				case line := <-st.ch:
					w(line)
				default:
					return
				}
			}
		}
	}
}

// Set installs (or, with nil, removes) the writer. w receives one
// newline-terminated line per call, from a single drainer goroutine;
// it owns no file lifecycle. Replacing or removing a writer flushes
// the old queue and waits for its drainer to exit, so after Set(nil)
// returns every delivered line has been written — lines written
// concurrently with the swap may be lost, never half-written.
func (s *LineSink) Set(w func(line []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st *sinkState
	if w != nil {
		st = &sinkState{
			ch:   make(chan []byte, sinkBufferLines),
			quit: make(chan struct{}),
			done: make(chan struct{}),
		}
		go st.drain(w)
	}
	if old := s.cur.Swap(st); old != nil {
		close(old.quit)
		<-old.done
	}
}

// Write marshals v to one JSON line and queues it for the drainer,
// dropping (and counting) it when the queue is full. Without a writer
// installed it returns before marshalling, so an idle sink costs one
// atomic load. v must not be mutated after the call.
func (s *LineSink) Write(v any) {
	st := s.cur.Load()
	if st == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	select {
	case st.ch <- append(b, '\n'):
	default:
		s.dropped.Add(1)
	}
}

// Dropped reports how many lines were discarded because the queue was
// full (the writer could not keep up).
func (s *LineSink) Dropped() uint64 { return s.dropped.Load() }
