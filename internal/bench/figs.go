package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// FigsSchema identifies the -figs document format.
const FigsSchema = "netalignmc-figs/v1"

// FigsOptions parameterizes one Figs call.
type FigsOptions struct {
	// Threads are the measured thread counts (default 1,2,4,8).
	Threads []int
	// Iters and Reps are per run (defaults 12 and 1: the fig problems
	// are large, so one rep per point keeps the sweep tractable).
	Iters int
	Reps  int
	Seed  int64
	Label string
	// Scale shrinks every preset's vertex count (0 or 1 = full size).
	Scale float64
	// Progress, when non-nil, receives one line per measured point.
	Progress func(line string)
}

// FigsDoc is the benchalign -figs document: every measured point of
// the Figure 4-7 speedup/per-step sweep in one place. It reuses the
// Run schema so existing tooling can read the per-step breakdowns.
type FigsDoc struct {
	Schema string  `json:"schema"`
	Host   Host    `json:"host"`
	Scale  float64 `json:"scale,omitempty"`
	Runs   []Run   `json:"runs"`
}

// Figs measures the Figure 4-7 configurations over the requested
// thread counts and returns the combined document.
func Figs(o FigsOptions) (*FigsDoc, error) {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8}
	}
	if o.Iters <= 0 {
		o.Iters = 12
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.Label == "" {
		o.Label = "figs"
	}
	doc := &FigsDoc{Schema: FigsSchema, Host: NewDoc().Host, Scale: o.Scale}
	for _, cfg := range FigConfigs() {
		runs, err := MeasureConfig(cfg, MeasureOptions{
			Threads: o.Threads, Iters: o.Iters, Reps: o.Reps,
			Seed: o.Seed, Label: o.Label,
			ScaleN: o.Scale,
		})
		if err != nil {
			return nil, err
		}
		doc.Runs = append(doc.Runs, runs...)
		if o.Progress != nil {
			for _, r := range runs {
				o.Progress(FormatRun(r))
			}
		}
	}
	return doc, nil
}

// WriteFile writes the document atomically (temp file + rename).
func (d *FigsDoc) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// FigConfigs returns the Figure 4-7 benchmark configurations (the
// fig4-..fig7- entries of the built-in config list) in paper order.
func FigConfigs() []Config {
	var out []Config
	for _, c := range configs {
		if strings.HasPrefix(c.Name, "fig4-") || strings.HasPrefix(c.Name, "fig5-") ||
			strings.HasPrefix(c.Name, "fig6-") || strings.HasPrefix(c.Name, "fig7-") {
			out = append(out, c)
		}
	}
	return out
}

// FormatRun renders one run as the human line benchalign prints.
func FormatRun(r Run) string {
	return fmt.Sprintf("%-12s %-6s t=%-3d %12.0f ns/iter  obj=%.4f",
		r.Config, r.Method, r.Threads, r.NsPerIter, r.Objective)
}

// Markdown renders the document as the speedup/per-step report: one
// section per configuration with the speedup curve (against the
// 1-thread point), then the per-step ns breakdown of the widest run.
func (d *FigsDoc) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Figure 4-7 scaling report\n\n")
	fmt.Fprintf(&b, "Host: %s/%s, %d CPUs, %s.", d.Host.GOOS, d.Host.GOARCH, d.Host.CPUs, d.Host.Go)
	if d.Scale > 0 && d.Scale < 1 {
		fmt.Fprintf(&b, " Problems scaled to %.0f%% of the paper sizes.", 100*d.Scale)
	}
	fmt.Fprintf(&b, "\nSpeedup is against the 1-thread run. All objectives per configuration must agree bit for bit.\n")

	for _, cfg := range figConfigOrder(d.Runs) {
		byThreads := map[int]Run{}
		var threads []int
		for _, r := range d.Runs {
			if r.Config != cfg {
				continue
			}
			if _, seen := byThreads[r.Threads]; !seen {
				threads = append(threads, r.Threads)
			}
			byThreads[r.Threads] = r
		}
		sort.Ints(threads)
		base, haveBase := byThreads[1]
		fmt.Fprintf(&b, "\n## %s\n\n", cfg)
		fmt.Fprintf(&b, "| threads | ns/iter | speedup |\n")
		fmt.Fprintf(&b, "|---:|---:|---:|\n")
		for _, t := range threads {
			r := byThreads[t]
			speedup := "–"
			if haveBase && base.NsPerIter > 0 && r.NsPerIter > 0 {
				speedup = fmt.Sprintf("%.2fx", base.NsPerIter/r.NsPerIter)
			}
			fmt.Fprintf(&b, "| %d | %.0f | %s |\n", t, r.NsPerIter, speedup)
		}
		if len(threads) > 0 {
			writeStepTable(&b, byThreads[threads[len(threads)-1]])
		}
	}
	return b.String()
}

// figConfigOrder lists the distinct configs of the runs, first-seen
// order (which Figs emits in paper order).
func figConfigOrder(runs []Run) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range runs {
		if !seen[r.Config] {
			seen[r.Config] = true
			out = append(out, r.Config)
		}
	}
	return out
}

// writeStepTable renders the per-step breakdown of one run, largest
// step first, so the step limiting scaling is visible in the report.
func writeStepTable(b *strings.Builder, r Run) {
	if len(r.StepNs) == 0 {
		return
	}
	type step struct {
		name string
		ns   int64
	}
	steps := make([]step, 0, len(r.StepNs))
	for name, ns := range r.StepNs {
		steps = append(steps, step{name, ns})
	}
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].ns != steps[j].ns {
			return steps[i].ns > steps[j].ns
		}
		return steps[i].name < steps[j].name
	})
	fmt.Fprintf(b, "\nPer-step ns at t=%d (whole solve):\n\n", r.Threads)
	fmt.Fprintf(b, "| step | ns |\n|---|---:|\n")
	for _, s := range steps {
		fmt.Fprintf(b, "| %s | %d |\n", s.name, s.ns)
	}
}
