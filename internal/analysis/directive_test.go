package analysis

import (
	"fmt"
	"testing"
)

// TestDirectivePlacement pins what the shared comment walk reports for
// each kind of attachment, on the extract testdata pairs: function doc
// comments name their function, declaration comments and trailing
// comments are told apart, and arguments are trimmed.
func TestDirectivePlacement(t *testing.T) {
	pkgs, _, err := LoadModule(".", "internal/analysis/extract/testdata/src/pairs")
	if err != nil {
		t.Fatal(err)
	}
	dirs, diags := Directives(pkgs[0], "test")
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	got := map[string]bool{}
	for _, d := range dirs {
		fn := ""
		if d.Func != nil {
			fn = d.Func.Name.Name
		}
		got[fmt.Sprintf("%d %s %s|%s|%d", d.Pos.Line, d.Name, d.Args, fn, d.Placement)] = true
	}
	for _, want := range []string{
		fmt.Sprintf("19 property pair=sb forbid writer.y == 0 && reader.x == 0||%d", PlaceLine),
		fmt.Sprintf("23 verify pair=sb role=writer|SBWriter|%d", PlaceFuncDoc),
		fmt.Sprintf("24 fencefree |SBWriter|%d", PlaceFuncDoc),
		fmt.Sprintf("44 shared ||%d", PlaceDecl),
		fmt.Sprintf("82 model wait=1||%d", PlaceLine),
	} {
		if !got[want] {
			t.Errorf("missing directive %q; got %v", want, got)
		}
	}
}
