package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"vrcluster/internal/experiments"
	"vrcluster/internal/metrics"
	"vrcluster/internal/workload"
)

// reference.txt holds one "key digest" line per cell of every workload at
// every seed class, generated from the simulator by -regen. A speedup
// that changes a simulated result fails against it by cell name.
//
//go:embed reference.txt
var referenceText string

// figures_seed42.txt is the Figure 1-4 section of docs/vrbench_output.txt,
// which the paper grid must reproduce at seed 42.
//
//go:embed figures_seed42.txt
var figuresSeed42 string

// figureSeed is the seed whose paper-grid pass is checked row by row
// against the published figure tables.
const figureSeed = experiments.DefaultSeed

func parseReference(text string) (map[string]string, error) {
	ref := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("reference line %d: want \"key digest\", got %q", line, sc.Text())
		}
		ref[f[0]] = f[1]
	}
	return ref, sc.Err()
}

// renderFigures renders the Figure 1-4 tables from a paper-grid pass the
// way cmd/vrbench prints them.
func renderFigures(seed int64, results []cellResult) (string, error) {
	byKey := make(map[string]*metrics.Result, len(results))
	for _, r := range results {
		if r.err != nil {
			return "", fmt.Errorf("%s: %w", r.key, r.err)
		}
		byKey[r.key] = r.res
	}
	var b strings.Builder
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		prefix := "SPEC-Trace"
		if g == workload.Group2 {
			prefix = "App-Trace"
		}
		gr := &experiments.GroupRuns{Group: g}
		for lvl := 1; lvl <= 5; lvl++ {
			key := fmt.Sprintf("paper-grid/s%d/%s-%d/", seed, prefix, lvl)
			base, vr := byKey[key+"gls"], byKey[key+"vr"]
			if base == nil || vr == nil {
				return "", fmt.Errorf("paper grid lacks %s cells", key)
			}
			gr.Levels = append(gr.Levels, experiments.LevelRun{Level: lvl, Base: base, VR: vr})
		}
		for _, t := range append(gr.ExecQueueTables(), gr.SlowdownTables()...) {
			if err := experiments.RenderTable(&b, t); err != nil {
				return "", err
			}
		}
	}
	return b.String(), nil
}

// checkFigures compares a seed-42 paper-grid pass with the published rows.
func checkFigures(results []cellResult) error {
	got, err := renderFigures(figureSeed, results)
	if err != nil {
		return err
	}
	if got == figuresSeed42 {
		return nil
	}
	want := strings.Split(figuresSeed42, "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(want) || line != want[i] {
			w := "<none>"
			if i < len(want) {
				w = want[i]
			}
			return fmt.Errorf("figure row %d differs:\n got  %q\n want %q", i+1, line, w)
		}
	}
	return fmt.Errorf("figure rows end early: got %d lines, want %d", strings.Count(got, "\n"), len(want)-1)
}

// regenerate runs one timed pass of every workload at every seed class,
// the seeds spread over workers, and writes the reference file. Cells
// shared by several seeds must agree.
func regenerate(path string, workers int) error {
	ref := make(map[string]string)
	for _, w := range workloads {
		passes := make([][]cellResult, seedClasses)
		errs := make([]error, seedClasses)
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := range passes {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				p, err := w.setup(int64(i+1), nil)
				if err != nil {
					errs[i] = err
					return
				}
				passes[i] = p.run(nil)
			}(i)
		}
		wg.Wait()
		for i, results := range passes {
			seed := int64(i + 1)
			if errs[i] != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, errs[i])
			}
			for _, r := range results {
				if r.err != nil {
					return fmt.Errorf("%s seed %d: %s: %w", w.name, seed, r.key, r.err)
				}
				if prev, dup := ref[r.key]; dup && prev != r.digest {
					return fmt.Errorf("%s: digest %s at seed %d, %s earlier", r.key, r.digest, seed, prev)
				}
				ref[r.key] = r.digest
			}
			if w.name == "paper-grid" && seed == figureSeed {
				if err := checkFigures(results); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(os.Stderr, "regen %s: %d seeds\n", w.name, seedClasses)
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, ref[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
