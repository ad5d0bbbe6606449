package bench

import (
	"context"
	"strings"
	"testing"
)

// TestFiguresInterruptible: a cancelled context stops every figure
// driver at a cell boundary — no rows from uncompleted cells, and the
// partial table is stamped so it cannot pass for a baseline.
func TestFiguresInterruptible(t *testing.T) {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	figures := map[string]func(Options) int{
		"figure4": func(o Options) int { return len(Figure4(o).Rows()) },
		"figure5": func(o Options) int { return len(Figure5(o).Rows()) },
		"machine": func(o Options) int { return len(MachineCost(o).Rows()) },
		"bailout": func(o Options) int { return len(Bailout(o).Rows()) },
		"mc":      func(o Options) int { return len(MCExplorer(o).Rows()) },
	}
	for name, run := range figures {
		if n := run(Options{Quick: true, Context: gone}); n != 0 {
			t.Errorf("%s: pre-cancelled driver still produced %d rows", name, n)
		}
	}

	tab := Figure4(Options{Quick: true, Context: gone})
	stamped := false
	for _, note := range tab.Notes() {
		if strings.Contains(note, "INTERRUPTED") {
			stamped = true
		}
	}
	if !stamped {
		t.Error("interrupted figure4 table lacks the INTERRUPTED note")
	}
	if !tab.Interrupted {
		t.Error("interrupted figure4 table lacks the machine-readable Interrupted flag")
	}

	// A live context must not change behaviour: same rows as nil.
	live := context.Background()
	base := MachineCost(Options{Quick: true})
	got := MachineCost(Options{Quick: true, Context: live})
	if len(got.Rows()) != len(base.Rows()) {
		t.Errorf("live context changed MachineCost: %d rows, want %d", len(got.Rows()), len(base.Rows()))
	}
	for _, note := range got.Notes() {
		if strings.Contains(note, "INTERRUPTED") {
			t.Error("uninterrupted table stamped INTERRUPTED")
		}
	}
	if got.Interrupted {
		t.Error("uninterrupted table carries the Interrupted flag")
	}
}
