// Command sacha-tables regenerates every table and figure of the paper's
// evaluation from the model:
//
//	sacha-tables -table 2        FPGA resources (Table 2)
//	sacha-tables -table 3        per-action timing (Table 3)
//	sacha-tables -table3-live    Table 3 measured from an instrumented run
//	sacha-tables -table 4        protocol totals (Table 4) + JTAG reference
//	sacha-tables -fig 8          SACHa protocol trace (Fig. 8)
//	sacha-tables -fig 9          low-level protocol trace (Fig. 9)
//	sacha-tables -security       §7.2 adversary matrix
//	sacha-tables -all            everything
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"sacha/internal/apps"
	"sacha/internal/attack"
	"sacha/internal/attestation"
	"sacha/internal/compress"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/obs/span"
	"sacha/internal/resources"
	"sacha/internal/timing"
	"sacha/internal/verifier"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		switch {
		case errors.Is(err, flag.ErrHelp):
			os.Exit(0)
		case errors.Is(err, errUsage):
			os.Exit(2)
		}
		fatal(err)
	}
}

// errUsage reports a malformed command line or one that selects no
// table or figure; the flag set has already printed the usage text.
var errUsage = errors.New("usage")

// run parses args and writes every requested table and figure to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sacha-tables", flag.ContinueOnError)
	table := fs.Int("table", 0, "reproduce Table N (2, 3 or 4)")
	tableLive := fs.Bool("table3-live", false, "Table 3 aggregated live from an instrumented attestation")
	fig := fs.Int("fig", 0, "reproduce Figure N (8 or 9)")
	security := fs.Bool("security", false, "run the §7.2 adversary matrix")
	ablations := fs.Bool("ablations", false, "print the ablation sweeps (batching, device size, compression)")
	all := fs.Bool("all", false, "reproduce everything")
	devName := fs.String("device", "XC6VLX240T", "device geometry")
	secDevName := fs.String("security-device", "SmallLX", "device for the (protocol-heavy) security matrix")
	appName := fs.String("app", "blinker16", "intended application for protocol traces")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	geo, err := device.ByName(*devName)
	if err != nil {
		return err
	}

	if *all {
		*table = -1
		*fig = -1
		*security = true
		*ablations = true
	}
	ran := false
	if *table == 2 || *table == -1 {
		printTable2(w, geo)
		ran = true
	}
	if *table == 3 || *table == -1 {
		printTable3(w, geo)
		ran = true
	}
	if *tableLive || *table == -1 {
		printTable3Live(w, *appName)
		ran = true
	}
	if *table == 4 || *table == -1 {
		printTable4(w, geo)
		ran = true
	}
	if *fig == 8 || *fig == -1 {
		printProtocolTrace(w, *appName, false)
		ran = true
	}
	if *fig == 9 || *fig == -1 {
		printProtocolTrace(w, *appName, true)
		ran = true
	}
	if *security {
		printSecurityMatrix(w, *secDevName, *appName)
		ran = true
	}
	if *ablations {
		printAblations(w, geo, *appName)
		ran = true
	}
	if !ran {
		fs.Usage()
		return errUsage
	}
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sacha-tables:", err)
		os.Exit(1)
	}
}

func printTable2(w io.Writer, geo *device.Geometry) {
	fmt.Fprintf(w, "== Table 2: FPGA resources of the SACHa architecture (%s) ==\n", geo.Name)
	fmt.Fprint(w, resources.Format(resources.Table2(geo)))
	fmt.Fprintf(w, "StatPart occupies %.1f%% of the device (paper: < 9%%)\n\n",
		resources.StatPartFraction(geo)*100)
}

func printTable3(w io.Writer, geo *device.Geometry) {
	m := timing.NewModel(geo)
	fmt.Fprintf(w, "== Table 3: timing of the low-level protocol steps (%s) ==\n", geo.Name)
	fmt.Fprintf(w, "%-5s %-32s %12s\n", "", "Action", "Time")
	for _, row := range m.Table3() {
		fmt.Fprintf(w, "A%-4d %-32s %9d ns\n", int(row.Action), row.Action.Description(), row.Time.Nanoseconds())
	}
	fmt.Fprintln(w)
}

// printTable3Live reproduces Table 3 from measurement instead of the
// analytic model: it runs one attestation recorded on a session span
// and prints the span's per-kind aggregates of the protocol steps. The
// run uses the small device so it finishes instantly; virtual durations
// still follow the XC6VLX240T action model.
func printTable3Live(w io.Writer, appName string) {
	sys, rep, sp := attestRecorded(appName, 0)
	fmt.Fprintf(w, "== Table 3 (live): per-action timing aggregated from an instrumented run (device %s, app %s) ==\n",
		sys.Geo.Name, appName)
	fatal(writeStepTable(w, sp))
	fmt.Fprintf(w, "accepted: %v\n\n", rep.Accepted)
}

// attestRecorded runs one seeded attestation of the small device with a
// session span as its protocol event record. offset is the readback
// order offset i.
func attestRecorded(appName string, offset int) (*core.System, *attestation.Report, *span.Span) {
	app, err := apps.ByName(appName)
	fatal(err)
	sys, err := core.NewSystem(core.Config{
		Geo:        device.SmallLX(),
		App:        app,
		LabLatency: -1,
		Seed:       1,
	})
	fatal(err)
	sp := span.NewCollector(1).StartTrace(span.NewTraceID(1), "attestation")
	rep, err := sys.Attest(core.AttestOptions{Opts: verifier.Options{Offset: offset, Span: sp}})
	fatal(err)
	return sys, rep, sp
}

// stepKinds returns the step kinds a span recorded and their
// aggregates.
func stepKinds(sp *span.Span) ([]string, map[string]span.KindStat) {
	all := sp.Kinds()
	var kinds []string
	for k := range all {
		if attestation.IsStep(k) {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	return kinds, all
}

// writeStepTable writes a span's protocol steps as a Table 3-style
// report: count, total, mean and max virtual duration per action kind,
// sorted by descending total — the actions that dominate attestation
// time first.
func writeStepTable(w io.Writer, sp *span.Span) error {
	kinds, stats := stepKinds(sp)
	sort.SliceStable(kinds, func(i, j int) bool { return stats[kinds[i]].Total > stats[kinds[j]].Total })
	if _, err := fmt.Fprintf(w, "%-16s %8s %14s %14s %14s\n", "Action", "Count", "Total", "Mean", "Max"); err != nil {
		return err
	}
	var grand time.Duration
	for _, k := range kinds {
		a := stats[k]
		grand += a.Total
		if _, err := fmt.Fprintf(w, "%-16s %8d %14v %14v %14v\n", k, a.Count, a.Total, a.Total/time.Duration(a.Count), a.Max); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-16s %8s %14v\n", "total", "", grand)
	return err
}

// writeSteps writes the first headN protocol steps a span recorded with
// their virtual start time, Fig. 9 style, then a per-kind summary of
// every step. Each kind's head is retained, so the first steps and
// their start times are exact.
func writeSteps(w io.Writer, sp *span.Span, headN int) error {
	var at time.Duration
	for _, e := range sp.Events() {
		if headN == 0 {
			break
		}
		d := time.Duration(e.VirtualNS)
		if attestation.IsStep(e.Kind) {
			frame := ""
			if e.Frame >= 0 {
				frame = fmt.Sprintf("(frame %d)", e.Frame)
			}
			if _, err := fmt.Fprintf(w, "%12v  %-14s %-14s %10v  %s\n", at, e.Kind, frame, d, e.Note); err != nil {
				return err
			}
			headN--
		}
		at += d
	}
	if _, err := fmt.Fprintf(w, "--- summary ---\n"); err != nil {
		return err
	}
	kinds, stats := stepKinds(sp)
	var elapsed time.Duration
	for _, k := range kinds {
		elapsed += stats[k].Total
		if _, err := fmt.Fprintf(w, "%-14s × %-6d total %v\n", k, stats[k].Count, stats[k].Total); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "elapsed (virtual): %v\n", elapsed)
	return err
}

func printTable4(w io.Writer, geo *device.Geometry) {
	m := timing.NewModel(geo)
	tab := m.Table4()
	fmt.Fprintf(w, "== Table 4: total timing of the SACHa protocol (%s) ==\n", geo.Name)
	fmt.Fprintf(w, "%-5s %14s %16s\n", "", "Number of times", "Time")
	for _, row := range tab.Rows {
		fmt.Fprintf(w, "A%-4d %14d %16s\n", int(row.Action), row.Count, fmtDur(row.Total))
	}
	fmt.Fprintf(w, "%-5s %14s %16s   (paper: 1.443 s)\n", "", "Theoretical", fmtDur(tab.Theoretical))
	fmt.Fprintf(w, "%-5s %14s %16s   (paper: 28.5 s)\n", "", "Measured", fmtDur(tab.Measured))
	fmt.Fprintf(w, "Reference: direct JTAG configuration of the full device: %s (paper: around 28 s)\n\n",
		fmtDur(m.JTAGConfigTime()))
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.3f µs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.3f ms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3f s", d.Seconds())
	}
}

func printProtocolTrace(w io.Writer, appName string, lowLevel bool) {
	// Protocol traces run on the small device so they finish instantly;
	// the message structure is identical on the XC6VLX240T.
	which, offset := "Fig. 8: SACHa protocol", 0
	if lowLevel {
		which, offset = "Fig. 9: low-level communication steps", 137 // a non-zero offset i, as in Fig. 9
	}
	sys, rep, sp := attestRecorded(appName, offset)
	fmt.Fprintf(w, "== %s (device %s, app %s) ==\n", which, sys.Geo.Name, appName)
	fatal(attestation.WriteMilestones(w, sp.Events()))
	if lowLevel {
		fmt.Fprintln(w, "first protocol steps (virtual time on the XC6VLX240T action model):")
		fatal(writeSteps(w, sp, 8))
	}
	fmt.Fprintf(w, "result: H_Prv == H_Vrf: %v; B_Prv == B_Vrf: %v; accepted: %v\n\n",
		rep.MACOK, rep.ConfigOK, rep.Accepted)
}

func printAblations(w io.Writer, geo *device.Geometry, appName string) {
	m := timing.NewModel(geo)
	fmt.Fprintf(w, "== Ablation: frames per ICAP_config packet (§6.1 buffer ↔ messages trade-off, %s) ==\n", geo.Name)
	fmt.Fprintf(w, "%8s %12s %10s %14s %14s\n", "frames", "buffer", "commands", "theoretical", "measured")
	for _, p := range m.BatchSweep([]int{1, 2, 4, 8, 16}) {
		fmt.Fprintf(w, "%8d %10d B %10d %14s %14s\n",
			p.FramesPerPacket, p.BufferBytes, p.Commands, fmtDur(p.Theoretical), fmtDur(p.Measured))
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Ablation: device size sweep ==")
	fmt.Fprintf(w, "%-12s %10s %14s %14s\n", "device", "frames", "theoretical", "measured")
	for _, g := range []*device.Geometry{device.SmallLX(), device.XC6VLX240T(), device.BigLX()} {
		tab := timing.NewModel(g).Table4()
		fmt.Fprintf(w, "%-12s %10d %14s %14s\n", g.Name, g.NumFrames(), fmtDur(tab.Theoretical), fmtDur(tab.Measured))
	}
	fmt.Fprintln(w)

	app, err := apps.ByName(appName)
	fatal(err)
	golden, dynFrames, err := core.BuildGolden(geo, app, 1, 0x5A5A)
	fatal(err)
	var words []uint32
	for _, idx := range dynFrames {
		words = append(words, golden.Frame(idx)...)
	}
	r := compress.Ratio(words)
	fmt.Fprintf(w, "== Ablation: bitstream compression (paper ref [24], %s, app %s) ==\n", geo.Name, appName)
	fmt.Fprintf(w, "partial bitstream: %d bytes raw, ratio %.5f (%.0f bytes compressed)\n\n",
		len(words)*4, r, float64(len(words)*4)*r)
}

func printSecurityMatrix(w io.Writer, devName, appName string) {
	geo, err := device.ByName(devName)
	fatal(err)
	fmt.Fprintf(w, "== §7.2 security evaluation: adversary matrix (device %s) ==\n", geo.Name)
	results, err := attack.All(func() (*core.System, error) {
		app, err := apps.ByName(appName)
		if err != nil {
			return nil, err
		}
		return core.NewSystem(core.Config{
			Geo:        geo,
			App:        app,
			KeyMode:    core.KeyStatPUF,
			DeviceID:   1,
			LabLatency: -1,
			Seed:       2,
		})
	})
	fatal(err)
	fmt.Fprintf(w, "%-32s %-8s %-10s %s\n", "Adversary", "Class", "Detected", "Mechanism")
	for _, r := range results {
		fmt.Fprintf(w, "%-32s %-8s %-10v %s\n", r.Name, r.Class, r.Detected, r.Mechanism)
	}
	fmt.Fprintln(w)
}
