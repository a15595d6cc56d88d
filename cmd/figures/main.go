// Command figures regenerates every table and figure of the paper's
// evaluation on the simulated cluster, writing both a human-readable
// rendering (stdout + .txt) and CSV files for plotting.
//
// Usage:
//
//	figures [-only NAME] [-scale 1.0] [-epochs 60] [-seed 42] [-reps 0]
//	        [-out out/] [-profiles paper,nvme,fastnic] [-pprof localhost:6060]
//
// NAME is one of table1, fig1a, fig1b, table2, fig3a, fig3b, fig4, fig5,
// ablation, phases, robustness, transfer, leadtime, mitigation, shadow,
// extensions (the experimentNames table, in run order). An unknown name
// exits with status 2 and lists the valid ones.
//
// -pprof serves net/http/pprof profiles and a /metrics runtime-metrics dump
// on the given address while the experiments run.
//
// With no -only flag every experiment runs in paper order.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"quanterference/internal/dataset"
	"quanterference/internal/experiments"
	"quanterference/internal/label"
	"quanterference/internal/obs"
)

// experimentNames lists every -only name, in the order main runs them.
var experimentNames = []string{
	"table1", "fig1a", "fig1b", "table2", "fig3a", "fig3b", "fig4", "fig5",
	"ablation", "phases", "robustness", "transfer", "leadtime", "mitigation", "shadow",
	"extensions",
}

var (
	only     = flag.String("only", "", "run a single experiment ("+strings.Join(experimentNames, ", ")+")")
	scale    = flag.Float64("scale", 1.0, "workload volume scale factor")
	epochs   = flag.Int("epochs", 60, "training epochs for model experiments")
	seed     = flag.Int64("seed", 42, "root random seed")
	reps     = flag.Int("reps", 0, "dataset collection repetitions (0 = experiment default)")
	outDir   = flag.String("out", "out", "output directory for .txt/.csv files")
	profiles = flag.String("profiles", "paper,nvme,fastnic", "comma-separated hardware profiles for the transfer study")
	pprofA   = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
)

// checkOnly rejects a -only selection that names no experiment.
func checkOnly(sel string) error {
	if sel == "" || slices.Contains(experimentNames, sel) {
		return nil
	}
	return fmt.Errorf("unknown -only %q; valid names: %s", sel, strings.Join(experimentNames, ", "))
}

func main() {
	flag.Parse()
	sel := strings.ToLower(*only)
	if err := checkOnly(sel); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	if *pprofA != "" {
		go func() {
			if err := obs.ServeDebug(*pprofA); err != nil {
				fmt.Fprintln(os.Stderr, "figures: pprof:", err)
			}
		}()
		fmt.Printf("pprof + /metrics on http://%s/debug/pprof/\n", *pprofA)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	want := func(name string) bool { return sel == "" || sel == name }
	s := experiments.Scale(*scale)
	dcfg := experiments.DatasetConfig{Scale: s, Seed: *seed}

	if want("table1") {
		step("Table I: IO500 slowdown matrix", func() {
			r := experiments.TableI(experiments.TableIConfig{Scale: s})
			emit("table1", r.Render(), r.CSV())
			write("table1.svg", r.SVG())
			task, interf, v := r.MaxCell()
			fmt.Printf("  most impacted: %s under %s (%.1fx)\n", task, interf, v)
		})
	}
	if want("fig1a") {
		step("Figure 1(a): Enzo op latency vs interference level", func() {
			r := experiments.Figure1a(experiments.Figure1Config{Scale: s})
			emit("fig1a", r.Render(), r.CSV())
			write("fig1a.svg", r.SVG())
		})
	}
	if want("fig1b") {
		step("Figure 1(b): Enzo op latency vs interference type", func() {
			r := experiments.Figure1b(experiments.Figure1Config{Scale: s})
			emit("fig1b", r.Render(), r.CSV())
			write("fig1b.svg", r.SVG())
		})
	}
	if want("table2") {
		step("Table II: server-side metrics", func() {
			r := experiments.TableII(s)
			emit("table2", r.Render(), r.CSV())
		})
	}
	var io500ds *dataset.Dataset
	if want("fig3a") || want("fig4") || want("ablation") || want("extensions") || want("robustness") || want("shadow") {
		step("collecting IO500 dataset", func() {
			io500ds = experiments.IO500Dataset(dcfg)
			fmt.Printf("  %d samples, class balance %v\n", io500ds.Len(), io500ds.ClassCounts())
		})
	}
	if want("fig3a") {
		step("Figure 3(a): IO500 binary prediction", func() {
			ev := experiments.TrainEval("Figure 3(a) IO500 binary", io500ds, label.BinaryBins(), *epochs, *seed)
			emit("fig3a", ev.Render(), ev.CSV())
			write("fig3a.svg", ev.SVG())
		})
	}
	if want("fig3b") {
		step("Figure 3(b): DLIO binary prediction", func() {
			ev := experiments.Figure3b(dcfg, *epochs)
			emit("fig3b", ev.Render(), ev.CSV())
			write("fig3b.svg", ev.SVG())
		})
	}
	if want("fig4") {
		step("Figure 4: IO500 3-class prediction", func() {
			ev := experiments.Figure4From(io500ds, dcfg, *epochs)
			emit("fig4", ev.Render(), ev.CSV())
			write("fig4.svg", ev.SVG())
		})
	}
	if want("fig5") {
		step("Figure 5: AMReX / Enzo / OpenPMD prediction", func() {
			var txt, csv strings.Builder
			for i, ev := range experiments.Figure5(dcfg, *epochs) {
				txt.WriteString(ev.Render() + "\n")
				csv.WriteString("# " + ev.Name + "\n" + ev.CSV())
				write(fmt.Sprintf("fig5_%d.svg", i), ev.SVG())
			}
			emit("fig5", txt.String(), csv.String())
		})
	}
	if want("ablation") {
		step("Ablations: architecture, feature groups, window size", func() {
			arch := experiments.AblationArchitecture(io500ds, dcfg, *epochs)
			emit("ablation_architecture", arch.Render(), arch.CSV())
			feats := experiments.AblationFeatures(io500ds, dcfg, *epochs)
			emit("ablation_features", feats.Render(), feats.CSV())
			win := experiments.AblationWindow(dcfg, *epochs, nil)
			emit("ablation_window", win.Render(), win.CSV())
		})
	}
	if want("phases") {
		step("Phase study: per-phase slowdown of a multi-phase app", func() {
			r := experiments.PhaseStudy(experiments.PhaseStudyConfig{Scale: s})
			emit("phases", r.Render(), r.CSV())
		})
	}
	if want("robustness") {
		step("Robustness: accuracy/F1 across seeds", func() {
			r := experiments.Robustness(io500ds, label.BinaryBins(), *epochs, 5, *seed)
			emit("robustness", r.Render(), r.CSV())
		})
	}
	if want("transfer") {
		step("Transfer: cross-profile model transfer", func() {
			r := experiments.TransferStudy(experiments.TransferConfig{
				Profiles: strings.Split(*profiles, ","),
				Scale:    s,
				Epochs:   *epochs,
				Seed:     *seed,
			})
			emit("transfer", r.Render(), r.CSV())
		})
	}
	if want("leadtime") {
		step("Lead time: forecast accuracy vs prediction horizon", func() {
			r := experiments.LeadTimeStudy(experiments.LeadTimeConfig{
				Profiles: strings.Split(*profiles, ","),
				Scale:    s,
				Epochs:   *epochs,
				Seed:     *seed,
			})
			emit("leadtime", r.Render(), r.CSV())
		})
	}
	if want("mitigation") {
		step("Mitigation: policy × fault × workload actuation study", func() {
			r := experiments.MitigationStudy(experiments.MitigationConfig{
				Scale:  s,
				Reps:   *reps,
				Epochs: *epochs,
				Seed:   *seed,
			})
			emit("mitigation", r.Render(), r.CSV())
			if !r.ProactiveMatchesReactive() {
				fmt.Println("  WARNING: proactive policy never matched reactive slowdown-avoided")
			}
		})
	}
	if want("shadow") {
		step("Shadow: N-way champion/challenger gate on a live stream", func() {
			r := experiments.ShadowStudy(io500ds, experiments.ShadowStudyConfig{Seed: *seed})
			emit("shadow", r.Render(), r.CSV())
			winner := r.Winner
			if winner == "" {
				winner = "champion (kept)"
			}
			fmt.Printf("  gate winner: %s\n", winner)
		})
	}
	if want("extensions") {
		step("Extensions: attention architecture, exact-slowdown regression", func() {
			arch := experiments.ExtensionArchitectures(io500ds, dcfg, *epochs)
			emit("extension_architectures", arch.Render(), arch.CSV())
			reg := experiments.ExtensionRegression(io500ds, dcfg, *epochs)
			emit("extension_regression", reg.Render(), reg.CSV())
		})
	}
	fmt.Printf("done; outputs in %s/\n", *outDir)
}

func step(name string, fn func()) {
	fmt.Printf("== %s\n", name)
	start := time.Now()
	fn()
	fmt.Printf("   (%.1fs)\n", time.Since(start).Seconds())
}

func emit(name, txt, csv string) {
	fmt.Print(indent(txt))
	write(name+".txt", txt)
	write(name+".csv", csv)
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

func write(name, content string) {
	if err := os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
