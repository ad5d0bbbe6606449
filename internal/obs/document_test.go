package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type testDoc struct {
	Kind  string `json:"kind"`
	Value int    `json:"value"`
}

func TestWriteDocReadDocRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	n, err := WriteDoc(path, testDoc{Kind: "test-doc", Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"kind\": \"test-doc\",\n  \"value\": 7\n}\n"; string(blob) != want || n != len(want) {
		t.Errorf("WriteDoc wrote %d bytes %q, want %d bytes %q", n, blob, len(want), want)
	}
	var back testDoc
	if err := ReadDoc(path, "test-doc", &back); err != nil {
		t.Fatal(err)
	}
	if back.Value != 7 {
		t.Errorf("ReadDoc decoded %+v", back)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("WriteDoc left its temp file behind (stat err %v)", err)
	}
}

// TestWriteDocFailureKeepsPrevious: a write that cannot complete leaves
// the previous document byte-for-byte intact.
func TestWriteDocFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	if _, err := WriteDoc(path, testDoc{Kind: "test-doc", Value: 1}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteDoc(path, testDoc{Kind: "test-doc", Value: 2}); err == nil {
		t.Fatal("WriteDoc succeeded with its temp path blocked by a directory")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("failed write changed the previous document:\n got %s\nwant %s", after, before)
	}
}

func TestReadDocRejects(t *testing.T) {
	dir := t.TempDir()
	wrongKind := filepath.Join(dir, "wrong.json")
	if _, err := WriteDoc(wrongKind, testDoc{Kind: "other-doc"}); err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(malformed, []byte(`{"kind": "test-doc", "val`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, want string }{
		{wrongKind, `kind "other-doc", want "test-doc"`},
		{malformed, "parsing"},
	} {
		var d testDoc
		err := ReadDoc(tc.path, "test-doc", &d)
		if err == nil {
			t.Errorf("ReadDoc(%s) accepted the document", tc.path)
			continue
		}
		if !strings.Contains(err.Error(), tc.path) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadDoc(%s) error %q does not name the path and %q", tc.path, err, tc.want)
		}
	}
	var d testDoc
	if err := ReadDoc(filepath.Join(dir, "missing.json"), "test-doc", &d); !os.IsNotExist(err) {
		t.Errorf("ReadDoc of a missing file: err %v, want a not-exist error", err)
	}
}

func TestHashDoc(t *testing.T) {
	a := HashDoc(testDoc{Kind: "k", Value: 1})
	if a != HashDoc(testDoc{Kind: "k", Value: 1}) {
		t.Error("HashDoc is not deterministic")
	}
	if a == HashDoc(testDoc{Kind: "k", Value: 2}) {
		t.Error("HashDoc ignored a field change")
	}
	if !strings.HasPrefix(a, "sha256:") || len(a) != len("sha256:")+64 {
		t.Errorf("HashDoc = %q, want sha256:<64 hex>", a)
	}
}
