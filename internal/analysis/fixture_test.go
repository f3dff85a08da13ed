package analysis

import (
	"regexp"
	"testing"
)

// Fixture convention: each analyzer owns testdata/src/<name>/{flagged,clean}.
// In flagged, every offending line carries a comment of the form
//
//	// want `regexp`
//
// and the test demands a one-to-one match between want comments and
// diagnostics. The clean package must produce zero diagnostics — including
// via allow directives, which the clean fixtures exercise deliberately.

var wantRe = regexp.MustCompile("want `([^`]*)`")

type wantMark struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadFixture loads one fixture package, failing the test on any load or
// type-check error — a fixture that does not compile tests nothing.
func loadFixture(t *testing.T, rel string) []*Package {
	t.Helper()
	pkgs, err := Load("", "./testdata/src/"+rel)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", rel)
	}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			t.Fatalf("fixture %s does not type-check: %v", rel, e)
		}
	}
	return pkgs
}

// collectWants parses the want comments out of a fixture's sources.
func collectWants(t *testing.T, pkgs []*Package) []*wantMark {
	t.Helper()
	var out []*wantMark
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					out = append(out, &wantMark{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// checkFixturePair runs one analyzer over its flagged and clean fixtures.
func checkFixturePair(t *testing.T, a *Analyzer, name string) {
	t.Helper()

	flagged := loadFixture(t, name+"/flagged")
	wants := collectWants(t, flagged)
	if len(wants) == 0 {
		t.Fatalf("fixture %s/flagged declares no want comments", name)
	}
	findings, err := Check(flagged, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Position.Filename && w.line == f.Position.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}

	clean := loadFixture(t, name+"/clean")
	cleanFindings, err := Check(clean, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range cleanFindings {
		t.Errorf("clean fixture flagged: %s", f)
	}
}

func TestDeterminismFixtures(t *testing.T) { checkFixturePair(t, DeterminismAnalyzer, "determinism") }
func TestCtxflowFixtures(t *testing.T)     { checkFixturePair(t, CtxflowAnalyzer, "ctxflow") }
func TestHotallocFixtures(t *testing.T)    { checkFixturePair(t, HotallocAnalyzer, "hotalloc") }
func TestWirecompatFixtures(t *testing.T)  { checkFixturePair(t, WirecompatAnalyzer, "wirecompat") }
func TestLeakcheckFixtures(t *testing.T)   { checkFixturePair(t, LeakcheckAnalyzer, "leakcheck") }
