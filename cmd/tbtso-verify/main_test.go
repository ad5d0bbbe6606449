package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayRefusesBeforeLoad checks that -replay refuses a document
// that is not a counterexample before it loads any package: run from a
// directory outside every module, the load would fail with its own
// error, so a refusal that names the file shows the load never ran.
func TestReplayRefusesBeforeLoad(t *testing.T) {
	dir := t.TempDir()
	checkpoint := filepath.Join(dir, "campaign.ckpt.json")
	if err := os.WriteFile(checkpoint, []byte(`{"kind":"fuzz-checkpoint","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{
		checkpoint,
		filepath.Join("..", "..", "certs", "ffhp.json"), // a certificate
	} {
		stderr, code := runCaptured(t, "-C", dir, "-replay", doc)
		if code != 2 {
			t.Errorf("-replay %s: exit %d, want 2; stderr:\n%s", doc, code, stderr)
		}
		if want := "-replay " + doc + ": not a counterexample"; !strings.Contains(stderr, want) {
			t.Errorf("-replay %s: stderr lacks %q:\n%s", doc, want, stderr)
		}
	}
}

// TestUpdateHonoursAbsoluteCertdir checks that -update -certdir with an
// absolute path writes the certificates into that directory, and
// neither under the module root joined with it nor into certs/.
func TestUpdateHonoursAbsoluteCertdir(t *testing.T) {
	root := filepath.Join("..", "..")
	committed := filepath.Join(root, "certs", "ffbl.json")
	before, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "certs")
	if stderr, code := runCaptured(t, "-C", root, "-update", "-sweep", "1", "-certdir", dir, "./internal/lock"); code != 0 {
		t.Fatalf("-update -certdir %s: exit %d; stderr:\n%s", dir, code, stderr)
	}
	for _, name := range []string{"ffbl.json", "ffbl-tso.json", "ffbl-tso.cex.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("certificate not in -certdir: %v", err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, dir)); !os.IsNotExist(err) {
		t.Errorf("-certdir %s was joined onto the module root (stat: %v)", dir, err)
	}
	if after, err := os.ReadFile(committed); err != nil || string(after) != string(before) {
		t.Errorf("%s changed (err %v)", committed, err)
	}
}

// runCaptured calls run with args and returns what it wrote to stderr
// and its exit code.
func runCaptured(t *testing.T, args ...string) (string, int) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	code := run(args)
	os.Stderr = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), code
}
