// Command tbtso-verify extracts the //tbtso:verify-annotated protocol
// pairs from the module's source, model-checks each under mc's TBTSO[Δ]
// sweep, and compares the verdicts against the committed certificates
// (see docs/VERIFY.md for the annotation grammar and the certification
// semantics).
//
// Usage:
//
//	tbtso-verify [flags] [package patterns]
//
//	-C dir          module directory to run from (default ".")
//	-certdir dir    certificate directory, module-relative unless absolute (default "certs")
//	-update         rewrite certificates and counterexample artifacts
//	-sweep N        top of the Δ sweep (default 4): Δ runs 1..N
//	-maxstates N    per-exploration state budget (default mc's)
//	-format f       text or json (certificates to stdout)
//	-suggest-fences for violated pairs, search minimal fence insertions
//	                restoring plain-TSO soundness
//	-replay file    re-validate one counterexample artifact and exit
//
// Patterns default to ./.... Exit status: 0 when every pair's verdict
// matches its expectation AND matches the committed certificate; 1 on
// any diagnostic, unexpected verdict, or certificate drift; 2 on usage
// or load errors; 130 when interrupted (first SIGINT/SIGTERM stops at
// the next Δ cell and writes nothing, a second hard-exits; a rerun
// repeats the whole sweep, which costs milliseconds beside the
// seconds-long package load).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tbtso/internal/analysis"
	"tbtso/internal/analysis/extract"
	"tbtso/internal/cli"
	"tbtso/internal/mc"
	"tbtso/internal/obs"
	"tbtso/internal/obs/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program; main's os.Exit is the single exit point, so
// the deferred obs teardown runs on every path — the old structure
// returned straight through it only on the happy path.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("tbtso-verify", flag.ContinueOnError)
	dirFlag := fs.String("C", ".", "directory inside the module to analyze from")
	certDir := fs.String("certdir", "certs", "certificate directory, relative to the module root unless absolute")
	update := fs.Bool("update", false, "rewrite certificates and counterexample artifacts")
	sweep := fs.Int("sweep", 4, "top of the Δ sweep (Δ runs 1..N)")
	maxStates := fs.Int("maxstates", 0, "per-exploration state budget (0 = mc default)")
	formatFlag := fs.String("format", "text", "output format: text or json")
	suggest := fs.Bool("suggest-fences", false, "for violated pairs, search minimal fence insertions restoring plain-TSO soundness")
	replay := fs.String("replay", "", "counterexample artifact to re-validate")
	var obsOpts serve.Options
	obsOpts.RegisterEndpoint(fs)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tbtso-verify [-C dir] [-certdir dir] [-update] [-sweep N] [-maxstates N] [-format text|json] [-suggest-fences] [-replay file] [package patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *formatFlag != "text" && *formatFlag != "json" {
		fmt.Fprintf(os.Stderr, "tbtso-verify: unknown format %q (valid: text, json)\n", *formatFlag)
		return 2
	}

	ctx, stop := cli.SignalContext(context.Background(), os.Stderr)
	defer stop()

	// The ops endpoint gives long certification sweeps a pprof
	// surface; the checker itself runs no monitored machines.
	sess, err := obsOpts.Start(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbtso-verify:", err)
		return 2
	}
	defer func() {
		sess.FinishContext(ctx, os.Stderr, "tbtso-verify") // no flight: never a violation
		code = cli.ExitCode(ctx, code)
	}()

	// A -replay document that is not a counterexample is refused before
	// the packages load: the load, not the check, is what takes seconds.
	var cex *extract.Counterexample
	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err == nil {
			cex, err = extract.ParseCounterexample(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tbtso-verify: -replay %s: %v\n", *replay, err)
			return 2
		}
	}

	pkgs, root, err := analysis.LoadModule(*dirFlag, fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbtso-verify:", err)
		return 2
	}

	ex := extract.Extract(pkgs)
	failed := false
	for _, d := range ex.Diags {
		fmt.Fprintln(os.Stderr, d)
		failed = true
	}
	if len(ex.Pairs) == 0 {
		fmt.Fprintln(os.Stderr, "tbtso-verify: no //tbtso:verify pairs found")
		return 2
	}
	opt := extract.Options{MaxDelta: *sweep, MaxStates: *maxStates}

	if cex != nil {
		return replayCex(ex, cex, *replay, opt)
	}

	dir := *certDir
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(root, dir)
	}
	var certs []extract.Certificate
	for _, p := range ex.Pairs {
		if ctx.Err() != nil {
			break
		}
		if p.Failed {
			failed = true
			continue
		}
		rep, err := extract.Certify(ctx, p, opt)
		if err != nil {
			if errors.Is(err, mc.ErrInterrupted) {
				break
			}
			fmt.Fprintln(os.Stderr, "tbtso-verify:", err)
			failed = true
			continue
		}
		certs = append(certs, rep.Cert)
		report(p, rep)
		if !rep.Ok() {
			failed = true
			if *suggest {
				suggestFences(p, opt)
			}
		}
		if *update {
			if err := writeArtifacts(dir, p, rep); err != nil {
				fmt.Fprintln(os.Stderr, "tbtso-verify:", err)
				failed = true
			}
		} else if err := compareCert(dir, rep.Cert); err != nil {
			fmt.Fprintln(os.Stderr, "tbtso-verify:", err)
			failed = true
		}
	}

	if *formatFlag == "json" {
		if err := obs.EncodeDoc(os.Stdout, certs); err != nil {
			fmt.Fprintln(os.Stderr, "tbtso-verify:", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

// report prints the one-line human verdict for a pair.
func report(p *extract.Pair, rep *extract.Report) {
	c := rep.Cert
	mark := "ok  "
	if !rep.Ok() {
		mark = "FAIL"
	}
	switch c.Status {
	case extract.StatusCertified:
		top := c.Sweep[len(c.Sweep)-1]
		fmt.Printf("%s %-10s certified at Δ=%d..%d (threads=%d, %d states at Δ=%d, reductions: %s)\n",
			mark, c.Pair, c.CertifiedDelta, c.MaxDelta, c.Threads, top.States, top.Delta,
			strings.Join(c.Reductions, ","))
	case extract.StatusRefuted:
		fmt.Printf("%s %-10s refuted at Δ=0 as planted (witness %q", mark, c.Pair, c.TSO.Witness)
		if rep.Cex != nil && rep.Cex.Schedule != nil {
			fmt.Printf("; machine run %s/seed=%d reproduces", rep.Cex.Policy, rep.Cex.MachSeed)
		}
		fmt.Printf(")\n")
	case extract.StatusDecertified:
		fmt.Printf("%s %-10s DECERTIFIED: forbidden outcome %q admitted at Δ=%d (wait=%d)\n",
			mark, c.Pair, rep.Cex.Outcome, rep.Cex.Delta, rep.Cex.Wait)
	case extract.StatusVacuous:
		fmt.Printf("%s %-10s VACUOUS: property holds even on plain TSO; check the annotations\n", mark, c.Pair)
	case extract.StatusUnrefuted:
		fmt.Printf("%s %-10s UNREFUTED: expect=fail pair holds at Δ=0; the planted violation is gone\n", mark, c.Pair)
	}
}

func suggestFences(p *extract.Pair, opt extract.Options) {
	sugs, err := extract.SuggestFences(p, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbtso-verify: suggest:", err)
		return
	}
	if len(sugs) == 0 {
		fmt.Printf("     no fence set of size <= 2 restores plain-TSO soundness for %s\n", p.Name)
		return
	}
	for _, s := range sugs {
		var parts []string
		for _, f := range s.Fences {
			parts = append(parts, fmt.Sprintf("%s: Fence before op %d (%s)", f.Role, f.Index, f.Before))
		}
		fmt.Printf("     suggest: %s\n", strings.Join(parts, "; "))
	}
}

// certPath/cexPath/tracePath name a pair's committed artifacts.
func certPath(dir, pair string) string  { return filepath.Join(dir, pair+".json") }
func cexPath(dir, pair string) string   { return filepath.Join(dir, pair+".cex.json") }
func tracePath(dir, pair string) string { return filepath.Join(dir, pair+".trace.json") }

// writeArtifacts writes the certificate and, when a violation was
// found, the counterexample artifact and its Perfetto trace.
func writeArtifacts(dir string, p *extract.Pair, rep *extract.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := obs.WriteDoc(certPath(dir, p.Name), rep.Cert); err != nil {
		return err
	}
	fmt.Printf("     wrote %s\n", certPath(dir, p.Name))
	if rep.Cex == nil {
		return nil
	}
	if _, err := obs.WriteDoc(cexPath(dir, p.Name), rep.Cex); err != nil {
		return err
	}
	fmt.Printf("     wrote %s\n", cexPath(dir, p.Name))
	if rep.Cex.Schedule != nil {
		if _, err := obs.WriteAtomic(tracePath(dir, p.Name), rep.Cex.PerfettoTrace); err != nil {
			return err
		}
		fmt.Printf("     wrote %s\n", tracePath(dir, p.Name))
	}
	return nil
}

// compareCert checks the freshly computed certificate against the
// committed one. State/transition counts are normalized away before
// comparing — they are engine-version facts, not protocol facts, and
// must not fail CI when the explorer gets faster.
func compareCert(dir string, got extract.Certificate) error {
	data, err := os.ReadFile(certPath(dir, got.Pair))
	if err != nil {
		return fmt.Errorf("pair %s: no committed certificate (%v); run with -update and commit %s",
			got.Pair, err, certPath(dir, got.Pair))
	}
	var want extract.Certificate
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("pair %s: parsing committed certificate: %v", got.Pair, err)
	}
	normalize := func(c *extract.Certificate) {
		c.TSO.States, c.TSO.Transitions = 0, 0
		for i := range c.Sweep {
			c.Sweep[i].States, c.Sweep[i].Transitions = 0, 0
		}
	}
	normalize(&got)
	normalize(&want)
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		return fmt.Errorf("pair %s: verdict drifted from committed certificate %s\n  committed: %s\n  computed:  %s\n  (rerun with -update if the change is intended)",
			got.Pair, certPath(dir, got.Pair), w, g)
	}
	return nil
}

// replayCex re-validates the counterexample cex, read from path, against
// the current source: the pair is re-extracted, the stored outcome must
// still be forbidden and admitted, and the stored machine run must
// still reproduce.
func replayCex(ex *extract.Extraction, cex *extract.Counterexample, path string, opt extract.Options) int {
	for _, p := range ex.Pairs {
		if p.Name != cex.Pair {
			continue
		}
		if err := cex.Replay(p, opt); err != nil {
			fmt.Fprintf(os.Stderr, "tbtso-verify: replay %s: %v\n", path, err)
			return 1
		}
		fmt.Printf("ok   %s reproduces: outcome %q at Δ=%d", cex.Pair, cex.Outcome, cex.Delta)
		if cex.Schedule != nil {
			fmt.Printf(" (machine run %s/seed=%d)", cex.Policy, cex.MachSeed)
		}
		fmt.Println()
		return 0
	}
	fmt.Fprintf(os.Stderr, "tbtso-verify: artifact names pair %q, which is not in the loaded packages\n", cex.Pair)
	return 1
}
