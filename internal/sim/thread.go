package sim

import (
	"runtime"
	"sync"
)

// Simulated threads. Both multi-program machines run their programs — a
// MultiSystem's processes, an SMPSystem's per-CPU threads — as
// goroutines that take turns with the machine's scheduler: run hands a
// thread the machine and blocks until the thread hands it back with
// yield or ends. Exactly one goroutine runs simulator code at any
// moment, so a run is deterministic at any GOMAXPROCS and needs no
// locks.
//
// The unbuffered resume/yielded pair is a coroutine switch in portable
// form. iter.Pull would switch without the scheduler, but it needs
// go 1.23, and go.mod and bench/go.mod name go 1.22.

// threadSet is the set of simulated threads of one run.
type threadSet struct {
	all []*thread
	wg  sync.WaitGroup
}

// thread is one simulated program on a goroutine of its own.
type thread struct {
	resume  chan struct{} // the scheduler's go-ahead; closed to release
	yielded chan struct{} // the thread's hand-back

	done     bool // the program ended, by returning or panicking
	panicked any  // its panic value, re-raised on the scheduler
	released bool // stop closed resume: exit without running on
}

// start launches body on a new goroutine, parked until its first turn.
func (ts *threadSet) start(body func()) *thread {
	t := &thread{resume: make(chan struct{}), yielded: make(chan struct{})}
	ts.all = append(ts.all, t)
	ts.wg.Add(1)
	go func() {
		defer ts.wg.Done()
		if _, ok := <-t.resume; !ok {
			return
		}
		defer func() {
			if t.released {
				return
			}
			t.panicked = recover()
			t.done = true
			t.yielded <- struct{}{}
		}()
		body()
	}()
	return t
}

// run gives t the machine until it yields or ends. A panic in t is
// re-raised here, on the scheduler's goroutine, where a caller of the
// machine's Run can recover it.
func (t *thread) run() {
	t.resume <- struct{}{}
	<-t.yielded
	if t.panicked != nil {
		panic(t.panicked)
	}
}

// yield, called from t's own program, gives the machine back to the
// scheduler and parks until t's next turn. A thread released by stop
// exits here instead.
func (t *thread) yield() {
	t.yielded <- struct{}{}
	if _, ok := <-t.resume; !ok {
		t.released = true
		runtime.Goexit()
	}
}

// stop releases every thread that has not ended — after a panic they
// would never be resumed — and waits until each goroutine has exited,
// so none outlives the run. Machines defer it around their scheduler.
func (ts *threadSet) stop() {
	for _, t := range ts.all {
		if !t.done {
			close(t.resume)
		}
	}
	ts.wg.Wait()
}
