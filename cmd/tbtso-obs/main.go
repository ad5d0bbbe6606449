// Command tbtso-obs aggregates the observability artifacts the other
// tbtso commands leave behind — campaign checkpoints, flight-recorder
// dumps, standalone coverage snapshots (saved /coverage scrapes),
// metric snapshots (/metrics.json), and tbtso-bench figure documents —
// into one merged report:
//
//	tbtso-obs run1/*.json run2/*.json            # text summary
//	tbtso-obs -json runA.ckpt runB.ckpt > r.json # machine-readable report
//	tbtso-obs -compare old-report.json new/*.json # drift check, exit 1
//
// Artifacts self-identify through their "kind" field, so inputs can be
// globbed indiscriminately; unrecognised files are an error (they are
// probably not artifacts). Reports themselves ("obs-report") are also
// accepted as inputs, so aggregation composes.
//
// -compare rebuilds a report from the positional inputs and diffs it
// against the baseline report: coverage cells/ops/shapes the baseline
// had but the candidate lost, violation increases, and newly
// interrupted figures are drift. Exit status: 0 clean, 1 drift or
// violations surfaced, 2 usage/parse errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tbtso/internal/bench"
	"tbtso/internal/fuzz"
	"tbtso/internal/obs"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
)

// ReportKind is the aggregated report's "kind" field.
const ReportKind = "obs-report"

// Input records one consumed artifact and how it was classified.
type Input struct {
	Path string `json:"path"`
	Kind string `json:"kind"`
}

// CampaignTotals folds fuzz campaign checkpoints.
type CampaignTotals struct {
	Checkpoints int `json:"checkpoints"`
	// Incomplete counts checkpoints whose campaign had not finished.
	Incomplete int `json:"incomplete,omitempty"`
	fuzz.Totals
}

// FlightTotals folds flight-recorder dumps.
type FlightTotals struct {
	Dumps      int    `json:"dumps"`
	Events     uint64 `json:"events"`
	Violations uint64 `json:"violations"`
}

// FigureTotals folds tbtso-bench -json documents.
type FigureTotals struct {
	Documents int `json:"documents"`
	Figures   int `json:"figures"`
	// Interrupted lists the titles of figures stamped interrupted —
	// partial measurements that must not pass for baselines.
	Interrupted []string `json:"interrupted,omitempty"`
}

// Report is the merged document. Everything in it is a sum/union/max
// of the inputs, so merging reports is associative: aggregating
// aggregates loses nothing but per-input attribution.
type Report struct {
	Kind       string              `json:"kind"`
	Inputs     []Input             `json:"inputs"`
	Coverage   *coverage.Snapshot  `json:"coverage,omitempty"`
	Campaign   *CampaignTotals     `json:"campaign,omitempty"`
	Flight     *FlightTotals       `json:"flight,omitempty"`
	Violations []monitor.Violation `json:"violations,omitempty"`
	Figures    *FigureTotals       `json:"figures,omitempty"`
	Metrics    []obs.Metric        `json:"metrics,omitempty"`

	// ckptFlightEvents/Viols hold checkpoint-carried flight totals
	// until aggregation finishes: they only stand in for a flight dump
	// when none was given (a dump reports the same campaign's totals,
	// so counting both would double-count). Not part of the wire form.
	ckptFlightEvents, ckptFlightViols uint64
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tbtso-obs", flag.ContinueOnError)
	var (
		jsonOut = fs.Bool("json", false, "emit the merged report as JSON on stdout")
		compare = fs.String("compare", "", "diff the report built from the positional artifacts against this baseline obs-report; exit 1 on drift")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tbtso-obs [-json] [-compare baseline.json] artifact.json...")
		return 2
	}

	rep, err := aggregate(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbtso-obs:", err)
		return 2
	}

	if *compare != "" {
		var base Report
		if err := obs.ReadDoc(*compare, ReportKind, &base); err != nil {
			fmt.Fprintln(os.Stderr, "tbtso-obs:", err)
			return 2
		}
		drifts := Drift(&base, rep)
		for _, d := range drifts {
			fmt.Println("DRIFT", d)
		}
		if len(drifts) > 0 {
			fmt.Printf("compare: %d drifts against %s\n", len(drifts), *compare)
			return 1
		}
		fmt.Printf("compare: no drift against %s\n", *compare)
		return 0
	}

	if *jsonOut {
		if err := obs.EncodeDoc(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "tbtso-obs:", err)
			return 2
		}
	} else {
		rep.renderText(os.Stdout)
	}
	if rep.totalViolations() > 0 {
		return 1
	}
	return 0
}

// aggregate reads and classifies every input, folding each into one
// merged report.
func aggregate(paths []string) (*Report, error) {
	rep := &Report{Kind: ReportKind}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		kind, err := rep.fold(blob)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rep.Inputs = append(rep.Inputs, Input{Path: path, Kind: kind})
	}
	if rep.Flight == nil && (rep.ckptFlightEvents > 0 || rep.ckptFlightViols > 0) {
		rep.Flight = &FlightTotals{Events: rep.ckptFlightEvents, Violations: rep.ckptFlightViols}
	}
	return rep, nil
}

// fold classifies one artifact document and merges it; it returns the
// classification for the input manifest.
func (r *Report) fold(blob []byte) (string, error) {
	if len(bytes.TrimSpace(blob)) == 0 {
		return "", fmt.Errorf("empty document")
	}
	// A bare JSON array is a metrics snapshot (/metrics.json).
	if bytes.TrimSpace(blob)[0] == '[' {
		var ms []obs.Metric
		if err := json.Unmarshal(blob, &ms); err != nil {
			return "", fmt.Errorf("parsing metrics array: %w", err)
		}
		r.mergeMetrics(ms)
		return "metrics", nil
	}
	var probe struct {
		Kind string `json:"kind"`
		// Figures stays raw: a bench document carries an array here, an
		// obs-report an object (its figure totals).
		Figures json.RawMessage `json:"figures"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return "", fmt.Errorf("parsing artifact: %w", err)
	}
	figArray := len(bytes.TrimSpace(probe.Figures)) > 0 && bytes.TrimSpace(probe.Figures)[0] == '['
	switch {
	case probe.Kind == fuzz.CheckpointKind:
		var ck fuzz.Checkpoint
		if err := json.Unmarshal(blob, &ck); err != nil {
			return "", err
		}
		r.foldCheckpoint(&ck)
	case probe.Kind == monitor.CampaignFlightKind:
		dump, err := monitor.ReadCampaignFlightDump(bytes.NewReader(blob))
		if err != nil {
			return "", err
		}
		r.foldFlight(dump)
	case probe.Kind == coverage.Kind:
		var snap coverage.Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			return "", err
		}
		r.mergeCoverage(&snap)
	case probe.Kind == ReportKind:
		var other Report
		if err := json.Unmarshal(blob, &other); err != nil {
			return "", err
		}
		r.mergeReport(&other)
	case figArray && probe.Kind == "":
		doc, err := bench.ReadFigureDoc(bytes.NewReader(blob))
		if err != nil {
			return "", err
		}
		r.foldFigures(doc)
		return "bench-figures", nil
	default:
		return "", fmt.Errorf("unrecognized artifact kind %q", probe.Kind)
	}
	return probe.Kind, nil
}

func (r *Report) mergeCoverage(snap *coverage.Snapshot) {
	if snap.Empty() {
		return
	}
	if r.Coverage == nil {
		r.Coverage = &coverage.Snapshot{}
	}
	r.Coverage.Merge(snap)
}

func (r *Report) mergeMetrics(ms []obs.Metric) {
	if len(ms) == 0 {
		return
	}
	r.Metrics = obs.MergeMetrics(r.Metrics, ms)
}

func (r *Report) foldCheckpoint(ck *fuzz.Checkpoint) {
	if r.Campaign == nil {
		r.Campaign = &CampaignTotals{}
	}
	c := r.Campaign
	c.Checkpoints++
	if !ck.Done() {
		c.Incomplete++
	}
	c.Add(ck.Totals)
	if ck.Coverage != nil {
		r.mergeCoverage(ck.Coverage)
	}
	r.ckptFlightEvents += ck.FlightEvents
	r.ckptFlightViols += ck.FlightViolations
}

func (r *Report) foldFlight(dump *monitor.CampaignFlightDump) {
	if r.Flight == nil {
		r.Flight = &FlightTotals{}
	}
	r.Flight.Dumps++
	r.Flight.Events += dump.TotalEvents
	r.Flight.Violations += dump.TotalViolations
	for _, g := range dump.Groups {
		r.Violations = append(r.Violations, g.Violations...)
	}
}

func (r *Report) foldFigures(doc *bench.FigureDoc) {
	if r.Figures == nil {
		r.Figures = &FigureTotals{}
	}
	r.Figures.Documents++
	r.Figures.Figures += len(doc.Figures)
	r.Figures.Interrupted = append(r.Figures.Interrupted, doc.Interrupted()...)
}

// mergeReport folds a previously aggregated report (kind obs-report).
func (r *Report) mergeReport(o *Report) {
	if o.Coverage != nil {
		r.mergeCoverage(o.Coverage)
	}
	if o.Campaign != nil {
		if r.Campaign == nil {
			r.Campaign = &CampaignTotals{}
		}
		r.Campaign.Checkpoints += o.Campaign.Checkpoints
		r.Campaign.Incomplete += o.Campaign.Incomplete
		r.Campaign.Add(o.Campaign.Totals)
	}
	if o.Flight != nil {
		if r.Flight == nil {
			r.Flight = &FlightTotals{}
		}
		r.Flight.Dumps += o.Flight.Dumps
		r.Flight.Events += o.Flight.Events
		r.Flight.Violations += o.Flight.Violations
	}
	r.Violations = append(r.Violations, o.Violations...)
	if o.Figures != nil {
		if r.Figures == nil {
			r.Figures = &FigureTotals{}
		}
		r.Figures.Documents += o.Figures.Documents
		r.Figures.Figures += o.Figures.Figures
		r.Figures.Interrupted = append(r.Figures.Interrupted, o.Figures.Interrupted...)
	}
	r.mergeMetrics(o.Metrics)
}

func (r *Report) totalViolations() uint64 {
	var n uint64
	if r.Flight != nil {
		n = r.Flight.Violations
	}
	if m := uint64(len(r.Violations)); m > n {
		n = m
	}
	return n
}

func (r *Report) renderText(w *os.File) {
	fmt.Fprintf(w, "obs report over %d artifacts\n", len(r.Inputs))
	for _, in := range r.Inputs {
		fmt.Fprintf(w, "  input %-16s %s\n", in.Kind, in.Path)
	}
	if c := r.Campaign; c != nil {
		fmt.Fprintf(w, "campaign: %d checkpoints (%d incomplete), %d programs, %d runs, %d truncated, %d mismatches, %d shrink steps\n",
			c.Checkpoints, c.Incomplete, c.Programs, c.Runs, c.Truncated, c.Mismatches, c.ShrinkSteps)
	}
	if cov := r.Coverage; cov != nil {
		fmt.Fprintf(w, "coverage: %d programs, %d runs, %d cells, %d op kinds, %d shapes, %d drain causes\n",
			cov.Programs, cov.Runs, len(cov.Cells), len(cov.OpMix), len(cov.Shapes), len(cov.DrainMix))
		fmt.Fprintf(w, "coverage: mc %d explorations (%d truncated), %d states, %d transitions\n",
			cov.MC.Explorations, cov.MC.Truncated, cov.MC.States, cov.MC.Transitions)
	}
	if f := r.Flight; f != nil {
		fmt.Fprintf(w, "flight: %d dumps, %d events, %d violations\n", f.Dumps, f.Events, f.Violations)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	if fg := r.Figures; fg != nil {
		fmt.Fprintf(w, "figures: %d documents, %d figures", fg.Documents, fg.Figures)
		if len(fg.Interrupted) > 0 {
			fmt.Fprintf(w, ", %d INTERRUPTED", len(fg.Interrupted))
		}
		fmt.Fprintln(w)
		for _, title := range fg.Interrupted {
			fmt.Fprintf(w, "  interrupted: %s\n", title)
		}
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintf(w, "metrics: %d merged series\n", len(r.Metrics))
	}
}

// Drift compares a candidate report against a baseline: coverage the
// baseline had but the candidate lost (cells, op kinds, program
// shapes), violation growth, and figures that are newly interrupted.
// Gains are not drift — a longer candidate campaign covering more is
// healthy.
func Drift(base, cand *Report) []string {
	var out []string
	if base.Coverage != nil {
		if cand.Coverage == nil {
			out = append(out, "coverage: baseline has coverage, candidate has none")
		} else {
			out = append(out, coverageDrift(base.Coverage, cand.Coverage)...)
		}
	}
	if cand.totalViolations() > base.totalViolations() {
		out = append(out, fmt.Sprintf("violations: %d -> %d", base.totalViolations(), cand.totalViolations()))
	}
	baseCut := map[string]bool{}
	if base.Figures != nil {
		for _, t := range base.Figures.Interrupted {
			baseCut[t] = true
		}
	}
	if cand.Figures != nil {
		for _, t := range cand.Figures.Interrupted {
			if !baseCut[t] {
				out = append(out, fmt.Sprintf("figure newly interrupted: %s", t))
			}
		}
	}
	return out
}

func coverageDrift(base, cand *coverage.Snapshot) []string {
	var out []string
	missing := func(class string, baseKeys []string, has func(string) bool) {
		lost := 0
		example := ""
		for _, k := range baseKeys {
			if !has(k) {
				lost++
				if example == "" {
					example = k
				}
			}
		}
		if lost > 0 {
			out = append(out, fmt.Sprintf("coverage: %d %s lost (e.g. %s)", lost, class, example))
		}
	}
	missing("cells", coverage.SortedKeys(base.Cells), func(k string) bool { _, ok := cand.Cells[k]; return ok })
	missing("op kinds", coverage.SortedKeys(base.OpMix), func(k string) bool { _, ok := cand.OpMix[k]; return ok })
	missing("program shapes", coverage.SortedKeys(base.Shapes), func(k string) bool { _, ok := cand.Shapes[k]; return ok })
	return out
}
