// Streaming: live per-cell progress from the typed event channel. A
// Session streams a small grid; the consumer renders each event as it
// arrives (claimed, measured, served from store), keeps a running progress
// bar, and demonstrates clean mid-grid cancellation: press Ctrl-C and the
// terminal grid_done event still delivers the valid partial grid.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"opendwarfs"
)

// selection is the grid to stream: 4 benchmarks × 2 sizes × 4 devices.
var selection = opendwarfs.Selection{
	Benchmarks: []string{"kmeans", "srad", "fft", "crc"},
	Sizes:      []string{"tiny", "large"},
	Devices:    []string{"i7-6700k", "gtx1080", "k20m", "r9-290x"},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sess, err := opendwarfs.NewSession(
		opendwarfs.WithSamples(12),
		opendwarfs.WithFunctionalBudget(0), // timing model: fast, whole slate
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	events, err := sess.Stream(ctx, selection)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Streaming a 32-cell grid (Ctrl-C to cancel mid-grid):")
	for ev := range events {
		switch ev.Kind {
		case opendwarfs.EventCellStart:
			// A worker claimed the cell; useful for live dashboards that
			// show in-flight work, skipped here to keep the log compact.
		case opendwarfs.EventCellDone, opendwarfs.EventStoreHit:
			src := "measured"
			if ev.Kind == opendwarfs.EventStoreHit {
				src = "store"
			}
			fmt.Printf("[%-24s] %2d/%d  %-7s %-6s %-10s %10.3f ms  (%s, %s)\n",
				bar(ev.Done, ev.Total, 24), ev.Done, ev.Total,
				ev.Benchmark, ev.Size, ev.Device,
				ev.Measurement.Kernel.Median/1e6, src, ev.Elapsed.Round(1e5))
		case opendwarfs.EventGridDone:
			switch {
			case ev.Err == nil:
				fmt.Printf("\ngrid done: %d cells in %s\n", ev.Grid.Cells(), ev.Elapsed.Round(1e6))
			case errors.Is(ev.Err, context.Canceled):
				fmt.Printf("\ncancelled: partial grid holds the %d completed cells — still usable:\n",
					ev.Grid.Cells())
				for _, m := range ev.Grid.Measurements {
					fmt.Printf("  %-7s %-6s %-10s %10.3f ms\n", m.Benchmark, m.Size, m.Device.ID, m.Kernel.Median/1e6)
				}
			default:
				log.Fatal(ev.Err)
			}
		}
	}
}

// bar renders done/total as a fixed-width progress bar.
func bar(done, total, width int) string {
	if total <= 0 {
		return strings.Repeat(" ", width)
	}
	n := done * width / total
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}
