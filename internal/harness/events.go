package harness

import (
	"context"
	"fmt"
	"time"

	"opendwarfs/internal/dwarfs"
)

// EventKind discriminates grid-execution events. The values are stable wire
// strings: they appear verbatim in dwarfserve's SSE event stream and in any
// JSON-serialised Event.
type EventKind string

const (
	// EventCellStart fires when a worker claims a cell, before the store
	// lookup. Exactly one CellStart precedes each CellDone or StoreHit.
	EventCellStart EventKind = "cell_start"
	// EventCellDone fires after a cell was measured (a store miss, or a run
	// without a store) and, when a store is attached, persisted.
	EventCellDone EventKind = "cell_done"
	// EventStoreHit fires instead of CellDone when the cell was decoded
	// from the store rather than measured.
	EventStoreHit EventKind = "store_hit"
	// EventCellRetry fires when a measurement attempt failed with a
	// transient fault and another attempt will follow. Attempt is the
	// attempt that failed, Reason the fault class.
	EventCellRetry EventKind = "cell_retry"
	// EventCellFailed fires when a cell exhausted its attempts (or its
	// device dropped out) and will not be measured. The cell is absent
	// from the grid and from the store; the grid is still valid.
	EventCellFailed EventKind = "cell_failed"
	// EventDeviceQuarantined fires once per run for the first
	// device-down fault on a device: every remaining cell on it will
	// fail fast, and schedulers should migrate its slots.
	EventDeviceQuarantined EventKind = "device_quarantined"
	// EventGridDone is the final event of a run: totals, hit/miss counts,
	// the (possibly partial) grid and the terminal error, if any.
	EventGridDone EventKind = "grid_done"
)

// Event is one typed progress notification from a grid run. Cell events
// carry the cell coordinate; completion events additionally carry the
// measurement and the wall-clock time the cell took. Every event carries
// the run's counters (Done, Hits, Misses, Retries, Failed) as of its own
// emission, so none of them runs backwards from one event to the next.
// Fields that cannot be serialised (the measurement, the grid, the error)
// are excluded from JSON; wire consumers get the summary fields only.
type Event struct {
	Kind EventKind `json:"kind"`

	// Cell coordinate; empty on GridDone.
	Benchmark string `json:"benchmark,omitempty"`
	Size      string `json:"size,omitempty"`
	Device    string `json:"device,omitempty"`

	// Done counts completed cells (hits + measured) at the time the event
	// fired; Total is the planned cell count of the run. On CellDone and
	// StoreHit, Done includes the event's own cell.
	Done  int `json:"done"`
	Total int `json:"total"`

	// Elapsed is the wall-clock duration of the cell (CellDone, StoreHit)
	// or of the whole run (GridDone). Zero on CellStart.
	Elapsed time.Duration `json:"elapsed_ns"`

	// Hits and Misses are the store counters so far; both stay zero when
	// no store is attached.
	Hits   int `json:"store_hits"`
	Misses int `json:"store_misses"`

	// Attempt is the 1-based measurement attempt a fault event refers
	// to: the attempt that failed on CellRetry, the final attempt on
	// CellFailed. Zero elsewhere.
	Attempt int `json:"attempt,omitempty"`
	// Reason classifies the fault behind a CellRetry, CellFailed or
	// DeviceQuarantined event ("transient fault", "device down").
	Reason string `json:"reason,omitempty"`
	// Retries and Failed are the run's cumulative fault counters at the
	// time the event fired, maintained like Hits/Misses; both stay zero
	// on a clean run.
	Retries int `json:"retries,omitempty"`
	Failed  int `json:"failed,omitempty"`

	// Measurement is set on CellDone and StoreHit.
	Measurement *Measurement `json:"-"`

	// Grid and Err are set on GridDone only. Grid is set on every stop:
	// after cancellation or a cell error it is the valid partial grid
	// (completed cells, grid order, each already persisted) and Err is the
	// context's or the cell's error.
	Grid *Grid `json:"-"`
	Err  error `json:"-"`
}

// ProgressLine renders a completion event (cell_done or store_hit) as the
// classic one-line textual progress format — the single rendering the CLI
// front-ends print. It returns "" for every other event kind.
func (ev Event) ProgressLine() string {
	if (ev.Kind != EventCellDone && ev.Kind != EventStoreHit) || ev.Measurement == nil {
		return ""
	}
	m := ev.Measurement
	tag := "  [simulated]"
	switch {
	case m.Verified:
		tag = "  [verified]"
	case m.Functional:
		tag = "  [functional]"
	}
	src := ""
	if ev.Kind == EventStoreHit {
		src = "  [store]"
	}
	return fmt.Sprintf("cell %d/%d  %-8s %-7s %-12s median %12.3f ms  CV %5.3f  energy %8.3f J%s%s",
		ev.Done, ev.Total,
		m.Benchmark, m.Size, m.Device.ID,
		m.Kernel.Median/1e6, m.Kernel.CV, m.Energy.Median, tag, src)
}

// Stream runs the grid asynchronously and delivers typed events on the
// returned channel. The spec is validated synchronously — unknown
// benchmarks, sizes or devices fail before any goroutine starts — and the
// run begins immediately after Stream returns.
//
// The channel is unbuffered — delivery paces the run, so the events a
// consumer observes track execution closely and cancelling after the k-th
// event stops the grid near cell k — and it is closed after the terminal
// EventGridDone, which carries the resulting grid (partial after
// cancellation or a cell error), its counters and the error; the grid is
// the one RunGrid would return. Consumers must drain the channel until it
// closes; cancelling ctx makes that prompt (workers stop claiming cells,
// in-flight measurements abort at their next context check, and remaining
// progress events are dropped). A consumer that cancels and abandons the
// channel without draining forfeits the terminal event: it is held out
// for a grace period for late drainers, then discarded so the producer
// goroutine never leaks permanently.
func Stream(ctx context.Context, reg *dwarfs.Registry, spec GridSpec) (<-chan Event, error) {
	cells, nDevices, err := planCells(reg, spec)
	if err != nil {
		return nil, err
	}
	ch := make(chan Event)
	go func() {
		defer close(ch)
		g, err := runGrid(ctx, spec, cells, nDevices, func(ev Event) {
			// Drop non-terminal events once the consumer has cancelled:
			// they are progress-only, and blocking here would stall the
			// workers' shutdown.
			select {
			case ch <- ev:
			case <-ctx.Done():
			}
		})
		done := Event{
			Kind: EventGridDone, Done: g.Cells(), Total: len(cells), Elapsed: g.Elapsed,
			Hits: g.StoreHits, Misses: g.StoreMisses, Retries: g.Retries, Failed: len(g.Failed),
			Grid: g, Err: err,
		}
		if ctx.Err() == nil {
			// Normal completion: the consumer is obliged to drain.
			ch <- done
			return
		}
		// Cancelled: a draining consumer receives this immediately; one
		// that cancelled and walked away never will — bounded wait
		// instead of a permanent goroutine leak.
		select {
		case ch <- done:
		case <-time.After(10 * time.Second):
		}
	}()
	return ch, nil
}
