package main

import (
	"bufio"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeFlagTable: README's vsserved flag table names exactly the
// flags the binary defines, so neither can drift from the other.
func TestReadmeFlagTable(t *testing.T) {
	var defined []string
	(&options{}).flagSet().VisitAll(func(f *flag.Flag) { defined = append(defined, f.Name) })

	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	name := regexp.MustCompile("`-([a-z-]+)`")
	var listed []string
	inTable := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case line == "| flag | roles | what |":
			inTable = true
		case inTable && !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable:
			first := strings.SplitN(line, "|", 3)[1]
			for _, m := range name.FindAllStringSubmatch(first, -1) {
				listed = append(listed, m[1])
			}
		}
	}
	slices.Sort(listed)
	if !slices.Equal(defined, listed) {
		t.Errorf("README flag table lists %q,\nvsserved defines %q", listed, defined)
	}
}
