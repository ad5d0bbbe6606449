package extract

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbtso/internal/analysis"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// load type-checks the given module-relative package dirs through one
// shared loader, exactly as tbtso-verify does.
func load(t *testing.T, patterns ...string) []*analysis.Package {
	t.Helper()
	pkgs, _, err := analysis.LoadModule(".", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func pairByName(t *testing.T, ex *Extraction, name string) *Pair {
	t.Helper()
	for _, p := range ex.Pairs {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("pair %s not extracted (have %d pairs)", name, len(ex.Pairs))
	return nil
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("dump drifted from %s (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestExtractRealPairs locks down the abstract programs extracted from
// the REAL protocol kernels — the annotated FFHP and FFBL paths in
// internal/smr, internal/lock and internal/machalg — as golden dumps.
// A refactor that changes what tbtso-verify certifies must show up
// here as a reviewed diff.
func TestExtractRealPairs(t *testing.T) {
	ex := Extract(load(t, "internal/smr", "internal/lock", "internal/machalg"))
	for _, d := range ex.Diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	want := []string{"ffbl", "ffbl-mach", "ffbl-tso", "ffhp"}
	if len(ex.Pairs) != len(want) {
		t.Fatalf("extracted %d pairs, want %d", len(ex.Pairs), len(want))
	}
	for _, name := range want {
		p := pairByName(t, ex, name)
		if p.Failed {
			t.Errorf("pair %s failed extraction", name)
			continue
		}
		checkGolden(t, "dump_"+name+".golden", p.Dump())
	}
}

// TestExtractTestdataPairs pins the extraction of the self-contained
// testdata pairs, including the //tbtso:shared plain-variable path and
// the fixed //tbtso:model wait=1.
func TestExtractTestdataPairs(t *testing.T) {
	ex := Extract(load(t, "internal/analysis/extract/testdata/src/pairs"))
	for _, d := range ex.Diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	var dumps []string
	for _, name := range []string{"sb", "sb-shared", "sb-shortwait", "sb-tso"} {
		p := pairByName(t, ex, name)
		if p.Failed {
			t.Errorf("pair %s failed extraction", name)
			continue
		}
		dumps = append(dumps, p.Dump())
	}
	checkGolden(t, "dump_testdata.golden", strings.Join(dumps, "\n"))
}

// TestUnmodelableRejected asserts that deliberately unmodelable
// constructs are conservatively rejected with diagnostics naming the
// construct, and that their pairs come back unusable.
func TestUnmodelableRejected(t *testing.T) {
	ex := Extract(load(t, "internal/analysis/extract/testdata/src/bad"))
	for _, name := range []string{"bad", "bad-nonconst"} {
		if p := pairByName(t, ex, name); !p.Failed {
			t.Errorf("pair %s should have failed extraction", name)
		}
	}
	wantFragments := []string{
		"conditional control flow",
		"a channel send",
		"non-constant stored value",
		"unknown directive //tbtso:sharde",
	}
	for _, frag := range wantFragments {
		found := false
		for _, d := range ex.Diags {
			if strings.Contains(d.Message, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic mentions %q; got:\n%s", frag, diagLines(ex.Diags))
		}
	}
	for _, d := range ex.Diags {
		if d.Check != Check {
			t.Errorf("diagnostic under check %q, want %q: %s", d.Check, Check, d)
		}
	}
}

func diagLines(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

// TestDirectiveErrors covers the grammar diagnostics for malformed
// directives.
func TestDirectiveErrors(t *testing.T) {
	cases := []struct {
		give string
		want string
	}{
		{"role=writer", "needs pair="},
		{"pair=p role=judge", "role must be writer or reader"},
		{"pair=p role=writer step=0", "step=<k> needs a positive integer"},
		{"pair=p role=reader copies=9", "copies=<n> needs an integer in 1..3"},
		{"pair=p role=writer bogus=1", "unknown //tbtso:verify argument"},
	}
	for _, c := range cases {
		if _, err := parseVerify(c.give); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseVerify(%q) = %v, want error containing %q", c.give, err, c.want)
		}
	}
	propCases := []struct {
		give string
		want string
	}{
		{"forbid writer.r == 0", "needs pair="},
		{"pair=p", "needs a forbid clause"},
		{"pair=p expect=maybe forbid writer.r == 0", "expect only accepts fail"},
		{"pair=p forbid writer.r ~ 0", "no comparison operator"},
		{"pair=p forbid judge.r == 0", "must be writer.<reg> or reader.<reg>"},
		{"pair=p forbid writer.r == zero", "must be an integer"},
	}
	for _, c := range propCases {
		if _, err := parseProperty(c.give); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseProperty(%q) = %v, want error containing %q", c.give, err, c.want)
		}
	}
}
