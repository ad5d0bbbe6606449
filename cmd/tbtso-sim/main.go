// Command tbtso-sim explores the TBTSO abstract machine: it runs the
// litmus-test suite across scheduler seeds and drain policies and
// prints outcome histograms, showing which behaviours each memory-model
// configuration admits.
//
//	tbtso-sim                          # all litmus tests, TSO and TBTSO
//	tbtso-sim -test SB -delta 0        # one test on plain TSO
//	tbtso-sim -seeds 500 -stall 0.2    # wider exploration
//	tbtso-sim -trace -test TBTSO-flag  # print one execution's trace
//	tbtso-sim -test sb -o trace.json   # ...and export it for Perfetto
//	tbtso-sim -demo reclaim            # the §4 soundness matrix, live
//	tbtso-sim -demo deque -o t.json    # the §8 matrix; trace its sound row
//
// -o writes a Chrome trace-event/Perfetto JSON file (open at
// https://ui.perfetto.dev) of one execution, plus a metrics summary on
// stdout: for a litmus test, the execution -trace prints; for a demo,
// the paper's sound row. The trace has one track per machine thread:
// dur-1 slices for stores, loads, RMWs and fences; commit slices
// carrying the drain cause; flow arrows from each store to its commit
// (the store-buffer residency); and a buffered-stores counter track
// per thread.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"tbtso/internal/cli"
	"tbtso/internal/litmus"
	"tbtso/internal/machalg"
	"tbtso/internal/mc"
	"tbtso/internal/obs"
	"tbtso/internal/obs/monitor"
	"tbtso/internal/obs/serve"
	"tbtso/internal/tso"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program; main's os.Exit is the single exit point, so
// the deferred obs teardown (violation report, flight dump, endpoint
// stop) runs on every path — early exits used to skip it.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("tbtso-sim", flag.ContinueOnError)
	var (
		name  = fs.String("test", "", "litmus test name, any case (default: all)")
		delta = fs.Uint64("delta", 200, "TBTSO Δ bound in ticks (0 = plain TSO)")
		seeds = fs.Int("seeds", 100, "scheduler seeds per drain policy")
		stall = fs.Float64("stall", 0, "per-tick thread stall probability")
		trace = fs.Bool("trace", false, "print the execution trace of seed 0 (adversarial policy)")
		demo  = fs.String("demo", "", "run a soundness demo: reclaim or deque")
		exh   = fs.Bool("exhaustive", false, "enumerate ALL executions of the canonical programs with the model checker")
		out   = fs.String("o", "", "write a Perfetto trace of the traced execution (-test) or the sound row (-demo) here, plus a metrics summary")
	)
	var obsOpts serve.Options
	obsOpts.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out != "" && (*exh || *name == "" && *demo == "") {
		fmt.Fprintln(os.Stderr, "-o records one execution: name it with -test or -demo")
		return 2
	}

	ctx, stop := cli.SignalContext(context.Background(), os.Stderr)
	defer stop()

	sess, err := obsOpts.Start(nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return 2
	}
	defer func() {
		if n := sess.FinishContext(ctx, os.Stderr, "tbtso-sim"); n > 0 && code == 0 {
			code = 1
		}
		code = cli.ExitCode(ctx, code)
	}()

	if *exh {
		exhaustive()
		return 0
	}

	// The -o sinks, attached to the one execution the file records.
	var perf *obs.Perfetto
	var traceSinks []tso.Sink
	if *out != "" {
		perf = obs.NewPerfetto()
		traceSinks = []tso.Sink{perf, obs.NewMachineMetrics(sess.Registry)}
	}

	if *demo != "" {
		switch *demo {
		case "reclaim":
			record(sess.Flight, 0, func(sinks []tso.Sink) { demoReclaim(sinks, traceSinks) })
		case "deque":
			demoDeque(traceSinks)
		default:
			fmt.Fprintf(os.Stderr, "unknown demo %q (reclaim, deque)\n", *demo)
			return 2
		}
		return writeTrace(*out, perf, sess.Registry)
	}

	// A Δ-waiting test needs a bound; on plain TSO it runs at 200.
	flagDelta := *delta
	if flagDelta == 0 {
		flagDelta = 200
	}
	all := litmus.All(int(flagDelta))
	found := false
	for i, t := range all {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "tbtso-sim: interrupted; remaining litmus tests skipped")
			break
		}
		if *name != "" && !strings.EqualFold(t.Name, *name) {
			continue
		}
		if !found && sess.Flight != nil {
			sess.Flight.Begin(int64(i))
		}
		found = true
		d := *delta
		if t.NeedsDelta() && d == 0 {
			fmt.Printf("%s: requires Δ > 0; running with Δ=%d\n", t.Name, flagDelta)
			d = flagDelta
		}
		var rep litmus.Report
		record(sess.Flight, int64(i), func(sinks []tso.Sink) {
			rep = litmus.Run(t, litmus.RunConfig{
				Seeds:     *seeds,
				Delta:     d,
				StallProb: *stall,
				Sinks:     sinks,
			})
		})
		fmt.Printf("%s  [Δ=%d]\n  %s\n", t.Name, d, t.Doc)
		fmt.Print("  " + rep.String())
		if t.Relaxed != "" {
			fmt.Printf("  relaxed outcomes: %d/%d\n", rep.RelaxedN, rep.Total)
		}
		for _, err := range rep.Errs {
			fmt.Printf("  error: %v\n", err)
		}
		fmt.Println()

		if *trace || perf != nil {
			outcome, tr, err := litmus.OnceTraced(t, tso.Config{
				Delta:  d,
				Policy: tso.DrainAdversarial,
				Sinks:  traceSinks,
			})
			if err != nil {
				fmt.Printf("  trace error: %v\n", err)
				continue
			}
			fmt.Printf("  trace (seed 0, adversarial): outcome %s\n", outcome)
			if *trace {
				for _, e := range tr {
					fmt.Printf("    %s\n", e)
				}
			}
			fmt.Println()
		}
	}
	if !found && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "no litmus test named %q; available:\n", *name)
		for _, t := range all {
			fmt.Fprintf(os.Stderr, "  %s\n", t.Name)
		}
		return 2
	}
	return writeTrace(*out, perf, sess.Registry)
}

// record runs fn with the sinks that record it as seed's group of the
// session's flight recorder — seed is the litmus test's index in
// litmus.All, or 0 for a demo — and appends the finished group. Without
// a flight (no -obs.monitor or -obs.flightdir) fn gets no sinks.
func record(flight *monitor.ShardedFlight, seed int64, fn func(sinks []tso.Sink)) {
	if flight == nil {
		fn(nil)
		return
	}
	rec := flight.Record(seed)
	fn([]tso.Sink{rec})
	flight.Append(rec.Finish())
}

// writeTrace writes the -o Perfetto file and prints the metrics
// summary; it does nothing without -o. It returns an exit code.
func writeTrace(path string, perf *obs.Perfetto, reg *obs.Registry) int {
	if perf == nil {
		return 0
	}
	if _, err := obs.WriteAtomic(path, perf.WriteJSON); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("wrote %s (%d trace events) — open at https://ui.perfetto.dev\n", path, perf.EventCount())
	fmt.Println("\nmetrics:")
	reg.WriteText(os.Stdout)
	return 0
}

// exhaustive enumerates every execution of the canonical litmus
// programs under plain TSO and TBTSO bounds with the explicit-state
// model checker — small-scope proofs instead of sampling.
func exhaustive() {
	show := func(name string, p mc.Program, delta int, highlight string) {
		res := mc.Explore(p, delta)
		model := "TSO"
		if delta > 0 {
			model = fmt.Sprintf("TBTSO[Δ=%d]", delta)
		}
		fmt.Printf("%s on %s — %d states, outcome set:\n", name, model, res.States)
		for _, o := range res.List() {
			marker := " "
			if o == highlight {
				marker = "*"
			}
			fmt.Printf("  %s %s\n", marker, o)
		}
		if highlight != "" && !res.Has(highlight) {
			fmt.Printf("    (%s PROVEN IMPOSSIBLE at this bound)\n", highlight)
		}
		fmt.Println()
	}

	sb := litmus.StoreBuffering(false)
	fmt.Println("== store buffering, no fences ==")
	show("SB", sb.Prog, 0, sb.Relaxed)
	show("SB", sb.Prog, 1, sb.Relaxed)

	waits, short := litmus.TBTSOFlagPrinciple(11), litmus.TBTSOFlagPrinciple(1)
	fmt.Println("== asymmetric flag principle (fence-free T0; T1 fences and waits) ==")
	show("flag(wait=11)", waits.Prog, 0, waits.Forbidden)
	show("flag(wait=11)", waits.Prog, 10, waits.Forbidden)
	show("flag(wait=1) — inadequate wait", short.Prog, 10, short.Forbidden)
}

// demoReclaim prints the §4 soundness matrix live: the directed
// reclamation race under every combination of fence / Δ-deferral /
// memory model. Any sinks (the flight recorder's group) are attached to
// every machine — note the matrix deliberately includes
// unsound rows, so monitored runs WILL report violations there. With
// traceSinks (-o), the sound row runs once more with them attached.
func demoReclaim(sinks, traceSinks []tso.Sink) {
	fmt.Println("§4 reclamation race: reader protects a node, reclaimer frees it")
	fmt.Println("(machine: adversarial drains; UAF = use-after-free detected)")
	fmt.Println()
	rows := []struct {
		label string
		delta uint64
		mode  machalg.HPMode
	}{
		{"HP (store+fence)        on plain TSO ", 0, machalg.HPFenced},
		{"no fence, no deferral   on plain TSO ", 0, machalg.HPUnsafe},
		{"no fence, no deferral   on TBTSO[400]", 400, machalg.HPUnsafe},
		{"FFHP (Δ-deferred)       on plain TSO ", 0, machalg.HPFenceFree},
		{"FFHP (Δ-deferred)       on TBTSO[400]", 400, machalg.HPFenceFree},
	}
	for _, r := range rows {
		out := machalg.ReclaimRaceDemo(r.delta, r.mode, sinks...)
		verdict := "SAFE"
		if out.UseAfterFree {
			verdict = "USE-AFTER-FREE"
		}
		fmt.Printf("  %s  →  %s\n", r.label, verdict)
	}
	fmt.Println("\nonly fence-free + Δ-deferred + Δ-bounded machine is both fast and safe (§4)")
	if traceSinks != nil {
		r := rows[len(rows)-1] // FFHP on TBTSO[400]
		out := machalg.ReclaimRaceDemo(r.delta, r.mode, traceSinks...)
		fmt.Printf("\ntraced reclaim race: %s  use-after-free=%v\n", strings.TrimSpace(r.label), out.UseAfterFree)
	}
}

// demoDeque prints the §8 work-stealing matrix: temporal vs spatial
// bounding for the fence-free deque. With traceSinks (-o), seed 0 of
// the sound temporal row runs once more with them attached.
func demoDeque(traceSinks []tso.Sink) {
	fmt.Println("§8 fence-free work stealing: owner take has no fence; does the thief's")
	fmt.Println("steal protocol survive? (40 items, 2 thieves, up to 60 seeds each)")
	fmt.Println()
	rows := []struct {
		label     string
		delta     uint64
		bufferCap int
		wait      bool
	}{
		{"waitless steal  on plain TSO          ", 0, 0, false},
		{"waitless steal  on TSO[S=2] (spatial) ", 0, 2, false},
		{"Δ-waiting steal on TBTSO[200]         ", 200, 0, true},
		{"Δ-waiting steal on TBTSO[150]+TSO[S=2]", 150, 2, true},
	}
	for _, r := range rows {
		out := machalg.DequeDemo(r.delta, r.bufferCap, r.wait, 60)
		verdict := fmt.Sprintf("exact-once across %d seeds", out.SeedsTried)
		if out.Duplicated > 0 || out.Lost > 0 {
			verdict = fmt.Sprintf("BROKEN at seed %d: %d duplicated, %d lost",
				out.SeedsTried-1, out.Duplicated, out.Lost)
		}
		fmt.Printf("  %s  →  %s\n", r.label, verdict)
	}
	fmt.Println("\nspatial bounding (TSO[S]) does not make fence-free stealing safe; the")
	fmt.Println("temporal bound does — the §8 contrast, executable")
	if traceSinks != nil {
		r := rows[2] // Δ-waiting steal on TBTSO[200]
		out := machalg.DequeOnce(r.delta, r.bufferCap, r.wait, 0, traceSinks...)
		fmt.Printf("\ntraced deque harvest: %s seed 0  duplicated=%d lost=%d\n",
			strings.TrimSpace(r.label), out.Duplicated, out.Lost)
	}
}
