package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestCheckOnly(t *testing.T) {
	for _, name := range append([]string{""}, experimentNames...) {
		if err := checkOnly(name); err != nil {
			t.Errorf("checkOnly(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"fig6", "fig3", "Table1", "mitigation "} {
		err := checkOnly(name)
		if err == nil {
			t.Fatalf("checkOnly(%q) accepted an unknown name", name)
		}
		for _, valid := range experimentNames {
			if !strings.Contains(err.Error(), valid) {
				t.Fatalf("checkOnly(%q) error %q does not list %q", name, err, valid)
			}
		}
	}
}

// TestExperimentNamesMatchSource keeps the name table, the experiments main
// runs and the package doc comment in step.
func TestExperimentNamesMatchSource(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var run []string
	for _, m := range regexp.MustCompile(`want\("(\w+)"\)`).FindAllStringSubmatch(string(src), -1) {
		if !slices.Contains(run, m[1]) {
			run = append(run, m[1])
		}
	}
	for _, name := range run {
		if !slices.Contains(experimentNames, name) {
			t.Errorf("main runs %q, which experimentNames lacks", name)
		}
	}
	for _, name := range experimentNames {
		if !slices.Contains(run, name) {
			t.Errorf("experimentNames lists %q, which main never runs", name)
		}
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	doc = strings.Join(strings.Fields(strings.ReplaceAll(doc, "//", "")), " ")
	if want := strings.Join(experimentNames, ", "); !strings.Contains(doc, want) {
		t.Errorf("package doc does not list the experiment names %q", want)
	}
}
