// Package analysis implements tbtso-lint: a static analyzer that
// enforces the repository's fence discipline and modeled-memory
// discipline at compile time.
//
// The paper's contribution is an argument about WHERE fences may be
// elided: the fence-free fast paths (FFHP protect, FFBL owner lock)
// omit them, while every baseline and every slow path keeps them. The
// repository checks that discipline dynamically — on the TBTSO abstract
// machine, in litmus tests and in stress tests — but fence placement is
// a property of the program text, so it can also be checked statically,
// in the spirit of property-driven fence insertion (Joshi & Kroening)
// and TSO reduction/abstraction reasoning (Bouajjani et al.). This
// package does that with four checks, driven by magic comments:
//
//	//tbtso:fencefree       the function (and everything it calls inside
//	                        this module) must not issue a fence
//	//tbtso:requires-fence  the function must issue at least one fence,
//	                        on every path (per-block approximation)
//	//tbtso:ignore <check> <justification>
//	                        suppress one check here, with a reason
//
// The four checks (see docs/ANALYSIS.md for the full grammar and the
// mapping to the paper's §4–§5 arguments):
//
//	fencefree       an annotated function must not call fence.Line.Full,
//	                fence.Lines.Full or tso.Thread.Fence, directly or
//	                transitively through same-module callees.
//	requires-fence  an annotated function must contain a fence call on
//	                every path; bodies with no fence at all are flagged
//	                outright, bodies that fence only on some paths get a
//	                weaker "not on every path" diagnostic.
//	escape          inside machine code (any function taking a
//	                *tso.Thread), reads/writes of shared Go variables
//	                that bypass the Thread Load/Store/CAS/FetchAdd API
//	                are flagged: such accesses are silently exempt from
//	                the Δ-bound model the code claims to run under.
//	mixed           a struct field or package variable accessed both via
//	                sync/atomic and via plain loads/stores anywhere in
//	                the module — the latent-race pattern the dynamic
//	                race detector only catches when the schedule
//	                cooperates.
//
// Everything here is stdlib-only (go/parser, go/ast, go/types,
// go/importer); there is no dependency on golang.org/x/tools.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Check names, used in diagnostics and in //tbtso:ignore comments.
const (
	CheckFenceFree     = "fencefree"
	CheckRequiresFence = "requires-fence"
	CheckEscape        = "escape"
	CheckMixed         = "mixed"
	// CheckAnnotation reports misuse of the annotation grammar itself
	// (unknown directive or check names, unjustified ignores). It cannot
	// be suppressed.
	CheckAnnotation = "annotation"
)

// AllChecks lists the suppressible checks in reporting order.
var AllChecks = []string{CheckFenceFree, CheckRequiresFence, CheckEscape, CheckMixed}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Analyzer runs the checks over a set of loaded packages. The zero
// value with Packages set is ready to use.
type Analyzer struct {
	// Packages are the packages under analysis. They must all come from
	// one Loader so that type identities agree across packages.
	Packages []*Package
	// Checks, if non-empty, restricts the run to the named checks
	// (annotation-grammar errors are always reported).
	Checks []string

	facts *factTable
}

// Run executes the configured checks and returns the surviving
// diagnostics sorted by position. Suppressed diagnostics (covered by a
// justified //tbtso:ignore) are dropped; unjustified or malformed
// ignores are themselves reported under the "annotation" check.
func (a *Analyzer) Run() []Diagnostic {
	a.facts = collectFacts(a.Packages)

	var diags []Diagnostic
	if a.enabled(CheckFenceFree) || a.enabled(CheckRequiresFence) {
		diags = append(diags, checkFenceDiscipline(a.Packages, a.facts)...)
	}
	if a.enabled(CheckEscape) {
		diags = append(diags, checkEscape(a.Packages)...)
	}
	if a.enabled(CheckMixed) {
		diags = append(diags, checkMixed(a.Packages)...)
	}
	diags = append(diags, a.facts.annotationErrors...)

	kept := diags[:0]
	for _, d := range diags {
		if d.Check != CheckAnnotation && a.facts.suppressed(d.Check, d.Pos) {
			continue
		}
		kept = append(kept, d)
	}
	SortDiagnostics(kept)
	return kept
}

// SortDiagnostics orders diagnostics by file, line, column, check and
// message: a pure function of the set, independent of map iteration
// anywhere upstream. tbtso-lint and tbtso-verify both report in it.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Check != diags[j].Check {
			return diags[i].Check < diags[j].Check
		}
		return diags[i].Message < diags[j].Message
	})
}

func (a *Analyzer) enabled(check string) bool {
	if len(a.Checks) == 0 {
		return true
	}
	for _, c := range a.Checks {
		if c == check {
			return true
		}
	}
	return false
}

// ValidCheck reports whether name is a known suppressible check name
// (or the "all" wildcard accepted by //tbtso:ignore).
func ValidCheck(name string) bool {
	if name == "all" {
		return true
	}
	for _, c := range AllChecks {
		if c == name {
			return true
		}
	}
	return false
}

// ParseCheckList parses a comma-separated -check flag value.
func ParseCheckList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !ValidCheck(part) || part == "all" {
			if part == "all" {
				return nil, nil // all checks
			}
			return nil, fmt.Errorf("unknown check %q (valid: %s)", part, strings.Join(AllChecks, ", "))
		}
		out = append(out, part)
	}
	return out, nil
}
