// Paper pin: the Figure 1-4 grid rendered by cmd/vrbench at its defaults
// must equal the published docs/vrbench_output.txt row for row, so a
// change that moves a paper number fails here by name instead of being
// noticed at the next hand regeneration of the document.
package vrcluster_test

import (
	"os"
	"strings"
	"testing"
	"time"

	"vrcluster/internal/experiments"
	"vrcluster/internal/runner"
	"vrcluster/internal/workload"
)

// paperOutput is the committed cmd/vrbench transcript the grid must match.
const paperOutput = "docs/vrbench_output.txt"

// TestPaperFiguresMatchPublishedOutput runs both workload groups exactly as
// `go run ./cmd/vrbench` does by default (seed, 100 ms quantum, worker
// count) and requires every line RenderGroup writes — the Figure 1-4
// tables plus the interval-insensitivity and analytic rows that follow
// each group — to appear verbatim, in order, as one block of the
// published transcript. The transcript's timing lines ("5 levels in ...")
// lie outside that block and are never compared.
func TestPaperFiguresMatchPublishedOutput(t *testing.T) {
	data, err := os.ReadFile(paperOutput)
	if err != nil {
		t.Fatal(err)
	}
	const quantum = 100 * time.Millisecond
	var got strings.Builder
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		gr, err := experiments.Run(experiments.RunConfig{
			Group:    g,
			Seed:     experiments.DefaultSeed,
			Quantum:  quantum,
			Parallel: runner.DefaultParallelism(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := experiments.RenderGroup(&got, gr, quantum); err != nil {
			t.Fatal(err)
		}
	}

	gotLines := strings.Split(strings.TrimRight(got.String(), "\n"), "\n")
	want := strings.Split(string(data), "\n")
	start := -1
	for i, line := range want {
		if line == gotLines[0] {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("%s has no %q section", paperOutput, gotLines[0])
	}
	title := ""
	for i, line := range gotLines {
		if strings.HasPrefix(line, "Figure") || strings.HasPrefix(line, "Measurement") || strings.HasPrefix(line, "Section") {
			title = line
		}
		w := "<end of file>"
		if start+i < len(want) {
			w = want[start+i]
		}
		if line != w {
			t.Fatalf("%s, line %d of %s differs:\n got  %q\n want %q", title, start+i+1, paperOutput, line, w)
		}
	}
}
