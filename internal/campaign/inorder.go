package campaign

// Outcome is a cell as InOrder commits it: the value and error of its
// last attempt and the number of attempts made, 0 for a replayed cell.
type Outcome[T any] struct {
	Val      T
	Attempts int
	Err      error
}

// InOrder is the one cell scheduler. It runs cells 0..n-1, cell i under
// sup(i), and commits their outcomes strictly in index order, so what
// commit builds is byte-identical at any worker count. A cell for which
// replayed reports true never runs and is committed with a zero Outcome.
// With workers ≤ 1 the commit loop executes each cell itself, so no cell
// starts before the previous one is committed; with more, a bounded pool
// runs cells ahead (run must then be safe for concurrent use) and early
// outcomes wait for their turn. The first error from commit ends the
// walk and is returned: no later cell is committed or started, and cells
// still running finish into a buffered channel, so no goroutine leaks.
func InOrder[T any](n, workers int, replayed func(i int) bool, sup func(i int) *Supervisor,
	run func(i int) (T, error), commit func(i int, o Outcome[T]) error) error {
	execute := func(i int) Outcome[T] {
		v, attempts, err := Do(sup(i), func() (T, error) { return run(i) })
		return Outcome[T]{v, attempts, err}
	}
	var todo []int
	for i := 0; i < n; i++ {
		if replayed == nil || !replayed(i) {
			todo = append(todo, i)
		}
	}
	workers = min(workers, len(todo))

	type done struct {
		i int
		o Outcome[T]
	}
	results := make(chan done, len(todo))
	if workers > 1 {
		// A feeder hands out one cell at a time and stops at an abort.
		stop := make(chan struct{})
		defer close(stop)
		jobs := make(chan int)
		go func() {
			defer close(jobs)
			for _, i := range todo {
				select {
				case jobs <- i:
				case <-stop:
					return
				}
			}
		}()
		for w := 0; w < workers; w++ {
			go func() {
				for i := range jobs {
					results <- done{i, execute(i)}
				}
			}()
		}
	}

	// await returns cell i's outcome: executed here when serial,
	// otherwise taken from the pool.
	pending := make(map[int]Outcome[T])
	await := func(i int) Outcome[T] {
		if workers <= 1 {
			return execute(i)
		}
		for _, ok := pending[i]; !ok; _, ok = pending[i] {
			d := <-results
			pending[d.i] = d.o
		}
		o := pending[i]
		delete(pending, i)
		return o
	}
	for i, next := 0, 0; i < n; i++ {
		var o Outcome[T]
		if next < len(todo) && todo[next] == i {
			next++
			o = await(i)
		}
		if err := commit(i, o); err != nil {
			return err
		}
	}
	return nil
}
