package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteDoc is the one writer of every run-state document: fuzz
// checkpoints and artifacts, flight dumps, certificates and
// counterexamples. EncodeDoc renders the same bytes for documents
// served or printed, and WriteAtomic is WriteDoc's file write, shared
// with the Perfetto traces. ReadDoc reads the documents whose "kind"
// field names them — fuzz checkpoints and tbtso-obs reports — and
// HashDoc fingerprints the checkpoint's campaign key. The other documents are decoded by their own
// readers: fuzz.ReadArtifact, monitor.ReadCampaignFlightDump,
// tbtso-verify's compareCert and extract.ParseCounterexample.

// EncodeDoc writes v to w as indented JSON plus a newline.
func EncodeDoc(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteDoc writes v to path as indented JSON plus a newline (EncodeDoc)
// through WriteAtomic and returns the byte size written.
func WriteDoc(path string, v any) (int, error) {
	return WriteAtomic(path, func(w io.Writer) error { return EncodeDoc(w, v) })
}

// WriteAtomic writes what write renders to path and returns the byte
// size written. The bytes go to path+".tmp" first and are renamed over
// path, so an interruption mid-write leaves the previous file (or none)
// in place, never a torn one.
func WriteAtomic(path string, write func(io.Writer) error) (int, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return buf.Len(), nil
}

// ReadDoc decodes the JSON document at path into v, refusing a document
// whose "kind" field is not kind. Errors name the path.
func ReadDoc(path, kind string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return fmt.Errorf("parsing %s document %s: %w", kind, path, err)
	}
	if probe.Kind != kind {
		return fmt.Errorf("%s: document kind %q, want %q", path, probe.Kind, kind)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("parsing %s document %s: %w", kind, path, err)
	}
	return nil
}

// HashDoc fingerprints key — the canonical form of whatever determines
// a document's content — as "sha256:<hex>" over its JSON encoding. key
// must be plain data; HashDoc panics if it cannot be marshaled.
func HashDoc(key any) string {
	blob, err := json.Marshal(key)
	if err != nil {
		panic("obs: marshaling document hash key: " + err.Error())
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(blob))
}
