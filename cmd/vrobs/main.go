// Command vrobs summarizes a structured scheduler trace written by
// vrsim -trace: the run's decision counters, blocking-episode durations,
// reservation utilization, a migration-latency histogram, and a plain-text
// per-node Gantt chart built from the periodic node samples.
//
// Examples:
//
//	vrsim -group 1 -level 3 -policy vr -trace out.jsonl
//	vrobs out.jsonl
//	vrobs -width 100 -gantt=false out.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"time"

	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vrobs:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vrobs", flag.ContinueOnError)
	var (
		width = fs.Int("width", 72, "time columns in the Gantt chart and histogram bars")
		gantt = fs.Bool("gantt", true, "render the per-node Gantt chart")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: vrobs [flags] trace.jsonl")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	if len(events) == 0 {
		return fmt.Errorf("%s holds no events", fs.Arg(0))
	}
	summarize(out, events, *width, *gantt)
	return nil
}

// summarize renders every report section for the given events.
func summarize(out io.Writer, events []obs.Event, width int, gantt bool) {
	if width < 8 {
		width = 8
	}
	last := events[len(events)-1].At
	fmt.Fprintf(out, "trace: %d events over %s\n", len(events), last.Round(time.Millisecond))
	printKindCounts(out, events)
	printCounters(out, events)
	printEpisodes(out, events)
	printReservations(out, events, last)
	printMigrations(out, events, width)
	if gantt {
		printGantt(out, events, width, last)
	}
}

func printKindCounts(out io.Writer, events []obs.Event) {
	counts := obs.CountByKind(events)
	kinds := make([]obs.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	fmt.Fprintln(out, "\nevents by kind:")
	for _, k := range kinds {
		fmt.Fprintf(out, "  %-20s %d\n", k, counts[k])
	}
}

// printCounters folds the trace with the simulator's own counting path,
// so the block equals the run's metrics.Result counters. PendingPeak is
// left out: it is a gauge the cluster samples, not a fold of events.
// BlockingEpisodes, the summed per-pass no-destination hits, is printed as
// NoDestinationHits so it is not read as the episode spans reported below.
func printCounters(out io.Writer, events []obs.Event) {
	var c metrics.Counters
	for _, ev := range events {
		c.Count(ev)
	}
	fmt.Fprintln(out, "\nrun counters (tally kinds summed by their Aux):")
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "PendingPeak":
		case "BlockingEpisodes":
			fmt.Fprintf(out, "  %-20s %v\n", "NoDestinationHits", v.Field(i))
		default:
			fmt.Fprintf(out, "  %-20s %v\n", name, v.Field(i))
		}
	}
}

func printEpisodes(out io.Writer, events []obs.Event) {
	spans := obs.Episodes(events)
	fmt.Fprintf(out, "\nblocking episodes: %d\n", len(spans))
	if len(spans) == 0 {
		return
	}
	var total, max time.Duration
	complete := 0
	for _, s := range spans {
		d := s.Duration()
		total += d
		if d > max {
			max = d
		}
		if s.Complete {
			complete++
		}
	}
	fmt.Fprintf(out, "  complete: %d  total blocked: %s  mean: %s  max: %s\n",
		complete, total.Round(time.Millisecond),
		(total / time.Duration(len(spans))).Round(time.Millisecond),
		max.Round(time.Millisecond))
	for i, s := range spans {
		state := "closed"
		if !s.Complete {
			state = "open at end"
		}
		fmt.Fprintf(out, "  #%d  %10.3fs .. %10.3fs  (%s, %s)\n",
			i+1, s.Start.Seconds(), s.End.Seconds(), s.Duration().Round(time.Millisecond), state)
	}
}

func printReservations(out io.Writer, events []obs.Event, last time.Duration) {
	spans := obs.ReservationSpans(events)
	nodes := nodeSet(events)
	fmt.Fprintf(out, "\nreservations: %d\n", len(spans))
	if len(spans) == 0 {
		return
	}
	var total time.Duration
	byNode := map[int]time.Duration{}
	for _, s := range spans {
		total += s.Duration()
		byNode[s.Node] += s.Duration()
	}
	if len(nodes) > 0 && last > 0 {
		util := total.Seconds() / (float64(len(nodes)) * last.Seconds())
		fmt.Fprintf(out, "  reserved node-time: %s (%.2f%% of %d node(s) x %s makespan)\n",
			total.Round(time.Millisecond), util*100, len(nodes), last.Round(time.Second))
	}
	ids := make([]int, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(out, "  node %-3d reserved %s\n", id, byNode[id].Round(time.Millisecond))
	}
}

func printMigrations(out io.Writer, events []obs.Event, width int) {
	lats := obs.MigrationLatencies(events)
	fmt.Fprintf(out, "\nmigrations completed: %d\n", len(lats))
	if len(lats) == 0 {
		return
	}
	// Seconds-scale edges spanning sub-second transfers up to the netlink
	// worst case for big working sets.
	h, err := stats.NewHistogram([]float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120})
	if err != nil {
		panic(err) // static edges, cannot fail
	}
	for _, l := range lats {
		h.Add(l.D.Seconds())
	}
	p50, _ := h.Percentile(50)
	p95, _ := h.Percentile(95)
	mx, _ := h.Max()
	fmt.Fprintf(out, "  latency p50: %.3fs  p95: %.3fs  max: %.3fs  mean: %.3fs\n", p50, p95, mx, h.Mean())
	fmt.Fprint(out, h.Render(width/2, func(e float64) string { return fmt.Sprintf("%gs", e) }))
}

// printGantt renders one row per node, bucketing the periodic node samples
// into width time columns. Each cell shows the dominant state observed in
// the bucket: '!' down, 'R' reserved, a digit for resident jobs ('+' past
// 9), '.' idle, ' ' no sample.
func printGantt(out io.Writer, events []obs.Event, width int, last time.Duration) {
	nodes := nodeSet(events)
	if len(nodes) == 0 || last <= 0 {
		return
	}
	rows := make(map[int][]byte, len(nodes))
	for _, id := range nodes {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		rows[id] = row
	}
	for _, e := range events {
		if e.Kind != obs.KindNodeSample {
			continue
		}
		col := int(int64(e.At) * int64(width) / int64(last))
		if col >= width {
			col = width - 1
		}
		row, ok := rows[int(e.Node)]
		if !ok {
			continue
		}
		row[col] = sampleGlyph(e, row[col])
	}
	fmt.Fprintf(out, "\nper-node timeline (%s per column; '!' down, 'R' reserved, digit = jobs, '.' idle):\n",
		(last / time.Duration(width)).Round(time.Millisecond))
	for _, id := range nodes {
		fmt.Fprintf(out, "  node %-3d |%s|\n", id, string(rows[id]))
	}
}

// sampleGlyph picks the cell character for one sample, never downgrading a
// more alarming state already in the cell ('!' beats 'R' beats busier
// beats idle).
func sampleGlyph(e obs.Event, prev byte) byte {
	switch {
	case e.Flags&obs.FlagDown != 0:
		return '!'
	case prev == '!':
		return prev
	case e.Flags&obs.FlagReserved != 0:
		return 'R'
	case prev == 'R':
		return prev
	}
	jobs := int(e.Aux)
	var g byte
	switch {
	case jobs <= 0:
		g = '.'
	case jobs > 9:
		g = '+'
	default:
		g = byte('0' + jobs)
	}
	if glyphRank(g) < glyphRank(prev) {
		return prev
	}
	return g
}

func glyphRank(g byte) int {
	switch g {
	case ' ':
		return -1
	case '.':
		return 0
	case '+':
		return 11
	default:
		if g >= '0' && g <= '9' {
			return 1 + int(g-'0')
		}
		return 12
	}
}

// nodeSet lists every node id that appears in the events, ascending.
func nodeSet(events []obs.Event) []int {
	seen := map[int]bool{}
	for _, e := range events {
		if e.Node >= 0 {
			seen[int(e.Node)] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
