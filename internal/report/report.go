// Package report assembles the experiment outputs that cmd/figures writes
// (ASCII renderings, CSVs, SVGs) into one self-contained HTML page — the
// equivalent of flipping through the original artifact's eval_results
// folder.
package report

import (
	"fmt"
	"html/template"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// section is one experiment's material.
type section struct {
	ID    string
	Title string
	Text  string          // contents of <id>.txt
	SVGs  []template.HTML // inline <id>*.svg (trusted: produced by internal/plot)
	CSVs  []string        // csv filenames, listed as references
}

// order maps known experiment ids to their paper order and display titles.
var order = []struct{ id, title string }{
	{"table1", "Table I — IO500 slowdown matrix"},
	{"phases", "§II-A — multi-phase application under one interference type"},
	{"fig1a", "Figure 1(a) — Enzo op latency vs interference level"},
	{"fig1b", "Figure 1(b) — Enzo op latency vs interference type"},
	{"table2", "Table II — server-side metrics"},
	{"fig3a", "Figure 3(a) — IO500 binary prediction"},
	{"fig3b", "Figure 3(b) — DLIO binary prediction"},
	{"fig4", "Figure 4 — IO500 3-class prediction"},
	{"fig5", "Figure 5 — AMReX / Enzo / OpenPMD"},
	{"ablation_architecture", "Ablation — kernel vs flat model"},
	{"ablation_features", "Ablation — feature groups"},
	{"ablation_window", "Ablation — window size"},
	{"extension_architectures", "Extension — self-attention architecture"},
	{"extension_regression", "Extension — exact-slowdown regression"},
	{"mitigation", "Mitigation — policy × fault × workload study"},
}

var pageTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Quanterference — experiment report</title>
<style>
body { font-family: sans-serif; max-width: 1080px; margin: 2em auto; color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: 6px; }
h2 { margin-top: 2em; border-bottom: 1px solid #ccc; padding-bottom: 4px; }
pre { background: #f6f6f6; padding: 10px; overflow-x: auto; font-size: 12px; }
.csv { color: #666; font-size: 12px; }
svg { max-width: 100%; height: auto; }
</style></head><body>
<h1>Quanterference — experiment report</h1>
<p>Regenerated tables and figures of <em>"Understanding and Predicting
Cross-Application I/O Interference in HPC Storage Systems"</em> (SC 2024),
produced by <code>cmd/figures</code> on the simulated cluster.</p>
{{range .}}
<h2 id="{{.ID}}">{{.Title}}</h2>
{{range .SVGs}}{{.}}{{end}}
{{if .Text}}<pre>{{.Text}}</pre>{{end}}
{{if .CSVs}}<p class="csv">data: {{range .CSVs}}{{.}} {{end}}</p>{{end}}
{{end}}
</body></html>
`))

// Build renders the report for a directory of cmd/figures outputs.
func Build(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	byID := map[string]*section{}
	idOf := func(name string) string {
		base := strings.TrimSuffix(name, filepath.Ext(name))
		// fig5_0.svg -> fig5
		if i := strings.LastIndex(base, "_"); i > 0 {
			if suffix := base[i+1:]; len(suffix) == 1 && suffix[0] >= '0' && suffix[0] <= '9' {
				base = base[:i]
			}
		}
		return base
	}
	get := func(id string) *section {
		s, ok := byID[id]
		if !ok {
			s = &section{ID: id, Title: id}
			byID[id] = s
		}
		return s
	}
	var svgNames []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch filepath.Ext(name) {
		case ".txt":
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return "", err
			}
			get(idOf(name)).Text = string(raw)
		case ".csv":
			s := get(idOf(name))
			s.CSVs = append(s.CSVs, name)
		case ".svg":
			svgNames = append(svgNames, name)
		}
	}
	sort.Strings(svgNames)
	for _, name := range svgNames {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		s := get(idOf(name))
		s.SVGs = append(s.SVGs, template.HTML(raw)) //nolint:gosec // our own plot output
	}
	if len(byID) == 0 {
		return "", fmt.Errorf("report: no experiment outputs in %s (run cmd/figures first)", dir)
	}
	// Order: known sections first in paper order, then the rest sorted.
	var sections []*section
	seen := map[string]bool{}
	for _, o := range order {
		if s, ok := byID[o.id]; ok {
			s.Title = o.title
			sections = append(sections, s)
			seen[o.id] = true
		}
	}
	var rest []string
	for id := range byID {
		if !seen[id] {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	for _, id := range rest {
		sections = append(sections, byID[id])
	}
	var b strings.Builder
	if err := pageTmpl.Execute(&b, sections); err != nil {
		return "", err
	}
	return b.String(), nil
}
