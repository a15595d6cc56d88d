// Package par runs independent simulations concurrently. Each simulated
// cluster is confined to one goroutine (the discrete-event engine is
// single-threaded by design), but whole runs share nothing, so experiment
// drivers fan out across cores — a Table I regeneration is 50 independent
// simulations.
//
// Worker panics are contained: a panic inside worker(i) does not kill the
// process or deadlock the feeder. Map re-panics on the caller's goroutine
// with the failing index and stack attached once every other index has
// drained; MapE converts panics to *PanicError values and keeps going.
package par

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError wraps a panic that escaped a worker, with the index of the
// failing call and the worker goroutine's stack at panic time.
type PanicError struct {
	Index int
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// call invokes worker(i), converting a panic to a *PanicError.
func call(i int, worker func(i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return worker(i)
}

// Map invokes worker(i) for i in [0, n), running up to Workers() of them
// concurrently, and returns when all complete. Workers must not share
// mutable state except through their index-addressed result slots. If any
// worker panics, the remaining indices still run, and Map re-panics on the
// caller's goroutine with the first failing index and its stack attached.
func Map(n int, worker func(i int)) {
	err := mapBounded(n, Workers(), func(i int) error {
		worker(i)
		return nil
	})
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			panic(pe)
		}
		panic(err)
	}
}

// MapE invokes worker(i) for i in [0, n) concurrently like Map, collecting
// failures instead of aborting: a worker returning an error or panicking
// does not disturb the other indices. Returns nil when every call succeeds,
// otherwise an error joining each failure in index order; panics surface as
// *PanicError values (match with errors.As) carrying the failing index.
func MapE(n int, worker func(i int) error) error {
	return mapBounded(n, Workers(), worker)
}

// mapBounded is the shared fan-out core behind Map and MapE: at most limit
// workers run at once (limit <= 1 runs every index on the calling goroutine,
// in order).
func mapBounded(n, limit int, worker func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	if limit > n {
		limit = n
	}
	if limit <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = call(i, worker)
		}
		return errors.Join(errs...)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// call recovers panics, so this loop always drains next and
			// the feeder below can never block on a dead worker.
			for i := range next {
				errs[i] = call(i, worker)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// Errors unwraps the per-index failures joined by MapE (nil gives nil).
func Errors(err error) []error {
	if err == nil {
		return nil
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

// Workers is the concurrency limit (GOMAXPROCS, at least 1).
func Workers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}
