// Package sched is the engine's bounded fan-out. Run executes a DAG
// of named tasks — the probe pipeline of internal/core and the
// experiment fan-out of internal/experiments — starting every task
// whose dependencies have completed, up to the parallelism bound;
// Sweep measures independent items in index-ordered chunks. Results
// come back indexed by input order either way, so output assembly is
// deterministic regardless of completion order.
package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"servet/internal/obs"
)

// Task is one unit of work in the DAG.
type Task struct {
	// Name identifies the task; it must be unique within one Run.
	Name string
	// Deps names the tasks that must complete before this one starts.
	Deps []string
	// Run does the work. The context is cancelled when the overall run
	// is aborted (caller cancellation or a failed task).
	Run func(ctx context.Context) error
}

// Result is the outcome of one task. Results are returned in input
// order, not completion order.
type Result struct {
	// Name echoes the task name.
	Name string
	// Wall is how long the task ran (zero when skipped).
	Wall time.Duration
	// Err is the task's own failure, if any.
	Err error
	// Skipped is true when the task never started: a dependency
	// failed or was skipped, an earlier task failed, or the context
	// was cancelled first.
	Skipped bool
}

// CycleError reports a dependency cycle among the submitted tasks.
type CycleError struct {
	// Cycle lists the task names forming the cycle, in order.
	Cycle []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("sched: dependency cycle: %s", strings.Join(e.Cycle, " -> "))
}

// UnknownDepError reports a dependency on a task not in the set.
type UnknownDepError struct {
	Task, Dep string
}

func (e *UnknownDepError) Error() string {
	return fmt.Sprintf("sched: task %s depends on unknown task %s", e.Task, e.Dep)
}

// DuplicateTaskError reports two tasks sharing one name.
type DuplicateTaskError struct {
	Name string
}

func (e *DuplicateTaskError) Error() string {
	return fmt.Sprintf("sched: duplicate task %s", e.Name)
}

// TaskError wraps the failure of one task, naming it. When several
// tasks fail, Run reports the one earliest in input order, so error
// propagation does not depend on completion order.
type TaskError struct {
	Name string
	Err  error
}

func (e *TaskError) Error() string { return fmt.Sprintf("%s: %v", e.Name, e.Err) }
func (e *TaskError) Unwrap() error { return e.Err }

// validate checks names and dependencies and reports the first cycle.
func validate(tasks []Task) error {
	index := make(map[string]int, len(tasks))
	for i, t := range tasks {
		if t.Name == "" {
			return fmt.Errorf("sched: task %d has no name", i)
		}
		if _, dup := index[t.Name]; dup {
			return &DuplicateTaskError{Name: t.Name}
		}
		index[t.Name] = i
	}
	for _, t := range tasks {
		for _, d := range t.Deps {
			if _, ok := index[d]; !ok {
				return &UnknownDepError{Task: t.Name, Dep: d}
			}
		}
	}
	// Recursive DFS three-coloring; on a back edge, walk the stack to
	// extract the cycle.
	const (
		white = iota
		gray
		black
	)
	color := make([]int, len(tasks))
	var stack []int
	var visit func(i int) *CycleError
	visit = func(i int) *CycleError {
		color[i] = gray
		stack = append(stack, i)
		for _, d := range tasks[i].Deps {
			j := index[d]
			switch color[j] {
			case gray:
				var cyc []string
				seen := false
				for _, k := range stack {
					if k == j {
						seen = true
					}
					if seen {
						cyc = append(cyc, tasks[k].Name)
					}
				}
				cyc = append(cyc, tasks[j].Name)
				return &CycleError{Cycle: cyc}
			case white:
				if err := visit(j); err != nil {
					return err
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[i] = black
		return nil
	}
	for i := range tasks {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes the task DAG with at most parallelism tasks in flight
// (parallelism < 1 means 1). Tasks start as soon as their
// dependencies complete; ties break by input order. On the first task
// failure no further tasks start, in-flight tasks finish, dependents
// are marked skipped, and the returned error is a *TaskError for the
// failed task earliest in input order. Validation problems (cycles,
// unknown dependencies, duplicate names) are reported before anything
// runs.
func Run(ctx context.Context, tasks []Task, parallelism int) ([]Result, error) {
	if err := validate(tasks); err != nil {
		return nil, err
	}
	if parallelism < 1 {
		parallelism = 1
	}

	index := make(map[string]int, len(tasks))
	for i, t := range tasks {
		index[t.Name] = i
	}
	dependents := make([][]int, len(tasks))
	waiting := make([]int, len(tasks))
	for i, t := range tasks {
		waiting[i] = len(t.Deps)
		for _, d := range t.Deps {
			j := index[d]
			dependents[j] = append(dependents[j], i)
		}
	}

	results := make([]Result, len(tasks))
	for i, t := range tasks {
		results[i] = Result{Name: t.Name}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type completion struct {
		idx  int
		wall time.Duration
		err  error
	}
	done := make(chan completion)

	// ready holds startable task indices, kept in input order so the
	// dispatch order (and with parallelism 1, the execution order) is
	// deterministic.
	var ready []int
	for i := range tasks {
		if waiting[i] == 0 {
			ready = append(ready, i)
		}
	}

	launched := make([]bool, len(tasks))
	inFlight := 0
	finished := 0
	aborted := false

	// Task lifecycle spans record into the context's tracer (nil when
	// the run is untraced): one "sched" span per task, from dispatch to
	// completion, on a lane of its own while it is in flight.
	tr := obs.FromContext(ctx)

	start := func(i int) {
		launched[i] = true
		inFlight++
		go func() {
			sp := tr.Start("sched", tasks[i].Name)
			t0 := time.Now() //servet:wallclock — task wall-time provenance (report Timings), never a measurement input
			err := tasks[i].Run(runCtx)
			sp.End()
			//servet:wallclock
			done <- completion{idx: i, wall: time.Since(t0), err: err}
		}()
	}

	// skip marks i and its transitive dependents as skipped.
	var skip func(i int)
	skip = func(i int) {
		if launched[i] || results[i].Skipped {
			return
		}
		results[i].Skipped = true
		finished++
		for _, j := range dependents[i] {
			skip(j)
		}
	}

	for finished < len(tasks) {
		// Dispatch while there is room, unless the run is aborted or
		// the caller's context is gone.
		for !aborted && ctx.Err() == nil && inFlight < parallelism && len(ready) > 0 {
			i := ready[0]
			ready = ready[1:]
			if results[i].Skipped {
				continue
			}
			start(i)
		}
		if (aborted || ctx.Err() != nil) && inFlight == 0 {
			// Nothing running and nothing more may start: everything
			// not yet finished is skipped.
			for i := range tasks {
				if !launched[i] {
					skip(i)
				}
			}
			continue
		}
		if inFlight == 0 && len(ready) == 0 && finished < len(tasks) {
			// Cannot happen on a validated DAG, but fail loudly rather
			// than deadlock if it ever does.
			return results, fmt.Errorf("sched: stalled with %d of %d tasks finished", finished, len(tasks))
		}
		if inFlight == 0 {
			continue
		}

		c := <-done
		inFlight--
		finished++
		results[c.idx].Wall = c.wall
		results[c.idx].Err = c.err
		if c.err != nil {
			aborted = true
			cancel()
			for _, j := range dependents[c.idx] {
				skip(j)
			}
			continue
		}
		for _, j := range dependents[c.idx] {
			waiting[j]--
			if waiting[j] == 0 && !results[j].Skipped {
				ready = insertOrdered(ready, j)
			}
		}
	}

	// Report the root cause, not a casualty: when a task failed, the
	// run cancels runCtx and in-flight ctx-honoring tasks come back
	// with context.Canceled — those are consequences, as is any task
	// error caused by the caller cancelling ctx. Prefer the earliest
	// real error; fall back to the caller's cancellation; surface a
	// cancellation-shaped task error only when nothing else explains
	// the abort.
	var firstCancelled *TaskError
	for i := range tasks {
		err := results[i].Err
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCancelled == nil {
				firstCancelled = &TaskError{Name: tasks[i].Name, Err: err}
			}
			continue
		}
		return results, &TaskError{Name: tasks[i].Name, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	if firstCancelled != nil {
		return results, firstCancelled
	}
	return results, nil
}

// insertOrdered inserts j into the sorted slice of indices.
func insertOrdered(s []int, j int) []int {
	at := len(s)
	for i, v := range s {
		if j < v {
			at = i
			break
		}
	}
	s = append(s, 0)
	copy(s[at+1:], s[at:])
	s[at] = j
	return s
}
