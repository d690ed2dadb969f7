package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
)

// repoRoot returns the module root (two levels up from cmd/simvet).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// repo holds the one load of the whole module the repo-wide tests
// share.
var repo struct {
	once sync.Once
	pkgs []*load.Package
	err  error
}

// repoPackages loads every non-test package of the module, once.
func repoPackages(t *testing.T) []*load.Package {
	t.Helper()
	root := repoRoot(t)
	repo.once.Do(func() { repo.pkgs, repo.err = load.Packages(root, "./...") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	if len(repo.pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	return repo.pkgs
}

// TestSimvetCleanOnRepo is the acceptance gate: the committed tree
// must carry zero findings. A failure here means a contract violation
// landed (fix it) or a legitimate site lost its //simvet annotation
// (restore it with a reason).
func TestSimvetCleanOnRepo(t *testing.T) {
	for _, p := range repoPackages(t) {
		for _, a := range suite.Analyzers {
			pass := &analysis.Pass{
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					t.Errorf("%s: %s [%s]", p.Fset.Position(d.Pos), d.Message, a.Name)
				},
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s: %s: %v", p.ImportPath, a.Name, err)
			}
		}
	}
}

// TestVettoolProtocol builds the simvet binary and drives it through
// cmd/go exactly as CI does: go vet -vettool must exit clean on the
// repo, which exercises the -V=full handshake, the -flags query, and
// the per-package cfg/vetx exchange.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and re-vets the tree")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "simvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/simvet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building simvet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool reported findings or failed: %v\n%s", err, out)
	}
}
