package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"tbtso/internal/report"
)

// FigureDoc is the tbtso-bench -json output document: a list of figure
// tables. It round-trips through report.Table's JSON codec, so a
// committed baseline (BENCH_mc.json) can be read back and diffed
// against a fresh run.
type FigureDoc struct {
	Figures []*report.Table `json:"figures"`
}

// ReadFigureDoc parses a -json figure document.
func ReadFigureDoc(r io.Reader) (*FigureDoc, error) {
	var doc FigureDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("bench: parsing figure document: %w", err)
	}
	if len(doc.Figures) == 0 {
		return nil, fmt.Errorf("bench: figure document has no figures")
	}
	return &doc, nil
}

// CompareOptions tunes the regression thresholds. Time is compared by
// ratio (wall-clock noise in CI makes exact comparison useless);
// states likewise but tighter, since state counts only move when the
// explorer itself changes behaviour.
type CompareOptions struct {
	// TimeRatio flags a row when new time > old time × TimeRatio
	// (default 2.0).
	TimeRatio float64
	// StatesRatio flags a row when new states > old states × StatesRatio
	// (default 1.5).
	StatesRatio float64
}

func (o CompareOptions) orDefault() CompareOptions {
	if o.TimeRatio == 0 {
		o.TimeRatio = 2.0
	}
	if o.StatesRatio == 0 {
		o.StatesRatio = 1.5
	}
	return o
}

// Regression is one flagged row difference between baseline and
// candidate figure documents.
type Regression struct {
	Figure string // figure title
	Row    string // the row's identity-column key
	Column string // offending column ("" for structural problems)
	Old    string
	New    string
	Detail string
}

func (r Regression) String() string {
	s := fmt.Sprintf("%s | %s", r.Figure, r.Row)
	if r.Column != "" {
		s += fmt.Sprintf(" | %s: %s -> %s", r.Column, r.Old, r.New)
	}
	if r.Detail != "" {
		s += " (" + r.Detail + ")"
	}
	return s
}

// metricColumns are the perf columns compared by threshold; identity
// columns (program, Δ, engine, ...) are everything else. "outcomes" is
// special: it is a correctness column and must match exactly.
var metricColumns = map[string]bool{
	"states":   true,
	"time":     true,
	"states/s": true,
	"speedup":  true,
}

// Interrupted returns the titles of figures the document itself marks
// as cut short — via the machine-readable flag, or (for documents
// written before the flag existed) the INTERRUPTED footnote.
func (d *FigureDoc) Interrupted() []string {
	var out []string
	for _, t := range d.Figures {
		if t.Interrupted {
			out = append(out, t.Title)
			continue
		}
		for _, n := range t.Notes() {
			if strings.Contains(n, "INTERRUPTED") {
				out = append(out, t.Title)
				break
			}
		}
	}
	return out
}

// Compare diffs a candidate figure document against a baseline:
// figures are matched by title, rows by their identity columns, and
// each matched row's time/states cells are checked against the
// thresholds. Missing figures, missing rows, and changed outcome
// counts are always regressions; extra rows and figures in the
// candidate are not. A document compared against itself yields nil.
//
// Either document carrying an interrupted figure is an error, not a
// regression list: a partial document's missing rows would read as
// regressions (candidate) or silently shrink the comparison surface
// (baseline), so the comparison is refused outright.
func Compare(baseline, candidate *FigureDoc, opts CompareOptions) ([]Regression, error) {
	if figs := baseline.Interrupted(); len(figs) > 0 {
		return nil, fmt.Errorf("bench: baseline document is partial (interrupted figures: %s); refusing to compare against it", strings.Join(figs, ", "))
	}
	if figs := candidate.Interrupted(); len(figs) > 0 {
		return nil, fmt.Errorf("bench: candidate document is partial (interrupted figures: %s); rerun it to completion before comparing", strings.Join(figs, ", "))
	}
	opts = opts.orDefault()
	var out []Regression

	cand := make(map[string]*report.Table, len(candidate.Figures))
	for _, t := range candidate.Figures {
		cand[t.Title] = t
	}
	for _, oldT := range baseline.Figures {
		newT, ok := cand[oldT.Title]
		if !ok {
			out = append(out, Regression{Figure: oldT.Title, Row: "-", Detail: "figure missing from candidate"})
			continue
		}
		out = append(out, compareTable(oldT, newT, opts)...)
	}
	return out, nil
}

func compareTable(oldT, newT *report.Table, opts CompareOptions) []Regression {
	var out []Regression
	if strings.Join(oldT.Headers, ",") != strings.Join(newT.Headers, ",") {
		return []Regression{{
			Figure: oldT.Title, Row: "-",
			Detail: fmt.Sprintf("headers changed: %v -> %v", oldT.Headers, newT.Headers),
		}}
	}
	rowKey := func(row []string) string {
		var parts []string
		for i, h := range oldT.Headers {
			if i < len(row) && !metricColumns[h] && h != "outcomes" {
				parts = append(parts, row[i])
			}
		}
		return strings.Join(parts, " ")
	}
	newRows := make(map[string][]string, len(newT.Rows()))
	for _, r := range newT.Rows() {
		newRows[rowKey(r)] = r
	}
	for _, oldRow := range oldT.Rows() {
		key := rowKey(oldRow)
		newRow, ok := newRows[key]
		if !ok {
			out = append(out, Regression{Figure: oldT.Title, Row: key, Detail: "row missing from candidate"})
			continue
		}
		for i, h := range oldT.Headers {
			if i >= len(oldRow) || i >= len(newRow) {
				continue
			}
			oldC, newC := oldRow[i], newRow[i]
			reg := Regression{Figure: oldT.Title, Row: key, Column: h, Old: oldC, New: newC}
			switch {
			case h == "outcomes":
				if oldC != newC {
					reg.Detail = "outcome count changed — a correctness difference, not noise"
					out = append(out, reg)
				}
			case h == "states":
				if worseByRatio(oldC, newC, opts.StatesRatio, parseCount) {
					reg.Detail = fmt.Sprintf("states regressed beyond %.2fx", opts.StatesRatio)
					out = append(out, reg)
				}
			case h == "time":
				if worseByRatio(oldC, newC, opts.TimeRatio, parseTime) {
					reg.Detail = fmt.Sprintf("time regressed beyond %.2fx", opts.TimeRatio)
					out = append(out, reg)
				}
			}
		}
	}
	return out
}

// worseByRatio parses both cells with parse and reports whether the
// candidate exceeds baseline × ratio. Unparseable cells (annotations
// like "(truncated)") are never flagged — absence of evidence.
func worseByRatio(oldC, newC string, ratio float64, parse func(string) (float64, bool)) bool {
	o, ok1 := parse(oldC)
	n, ok2 := parse(newC)
	if !ok1 || !ok2 || o <= 0 {
		return false
	}
	return n > o*ratio
}

func parseCount(s string) (float64, bool) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	return v, err == nil
}

func parseTime(s string) (float64, bool) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, false
	}
	return float64(d), true
}
