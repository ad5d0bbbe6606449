package main

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestFigureTableDrivesHelpAndList checks that the -figure help and
// -list name exactly the figures that dispatch, plus "all", and that
// every figure is selectable by name.
func TestFigureTableDrivesHelpAndList(t *testing.T) {
	var want []string
	for _, f := range figures {
		want = append(want, f.name)
		if sel, err := selectFigures(f.name); err != nil || len(sel) != 1 || sel[0].name != f.name {
			t.Errorf("figure %q does not dispatch: %v", f.name, err)
		}
	}
	want = append(want, "all")
	slices.Sort(want)

	var help bytes.Buffer
	run([]string{"-h"}, io.Discard, &help)
	_, usage, ok := strings.Cut(help.String(), "which figures to regenerate, as a comma list: ")
	if !ok {
		t.Fatalf("no -figure usage in help:\n%s", help.String())
	}
	usage, _, _ = strings.Cut(usage, " (default")
	var inHelp []string
	for _, name := range strings.Split(usage, ", ") {
		inHelp = append(inHelp, strings.TrimPrefix(name, "or "))
	}
	slices.Sort(inHelp)
	if !slices.Equal(inHelp, want) {
		t.Errorf("-figure help names %v, want %v", inHelp, want)
	}

	var list bytes.Buffer
	if code := run([]string{"-list"}, &list, io.Discard); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(list.String()), "\n")[1:] {
		listed = append(listed, strings.Fields(line)[0])
	}
	slices.Sort(listed)
	if !slices.Equal(listed, want) {
		t.Errorf("-list names %v, want %v", listed, want)
	}
}

// TestUnknownFigureExits2 checks that a -figure list naming an unknown
// figure is a usage error before any figure runs.
func TestUnknownFigureExits2(t *testing.T) {
	for _, spec := range []string{"nope", "4,nope", "fig9"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-figure", spec, "-quick"}, &stdout, &stderr); code != 2 {
			t.Errorf("-figure %s exited %d, want 2", spec, code)
		}
		if !strings.Contains(stderr.String(), "unknown figure") || strings.Contains(stderr.String(), "took") || stdout.Len() > 0 {
			t.Errorf("-figure %s: stdout %q, stderr %q", spec, stdout.String(), stderr.String())
		}
	}
}
