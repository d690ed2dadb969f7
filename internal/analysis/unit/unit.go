// Package unit implements the `go vet -vettool` protocol for the
// simvet suite, mirroring x/tools' unitchecker: cmd/go probes the
// tool with -V=full (a version line hashed into the build cache key)
// and -flags (a JSON description of pass-through flags), then invokes
// it once per package with a JSON config file argument carrying the
// file set, the import map, and the export data of every dependency.
// The tool type-checks from export data only — no re-parsing of
// dependencies — which is what keeps whole-tree vet runs fast.
package unit

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Config is the JSON schema cmd/go writes for each vetted package
// (a subset of the fields; unknown fields are ignored on decode).
type Config struct {
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// PrintVersion implements -V=full: the exact shape cmd/go's toolID
// parser accepts for an unversioned tool — "name version devel ...
// buildID=<hash of the executable>" — so the build cache invalidates
// whenever the simvet binary changes.
func PrintVersion(progname string) {
	h := sha256.New()
	if f, err := os.Open(progname); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

// PrintFlags implements -flags: a JSON list of tool flags cmd/go may
// forward. simvet takes none beyond the protocol's own.
func PrintFlags() {
	fmt.Println("[]")
}

// Run executes the suite on the package described by the config file
// and returns the process exit code: 0 clean, 1 driver error, 2
// findings (matching unitchecker's convention). Diagnostics go to
// stderr as file:line:col: message.
func Run(cfgFile string, analyzers []*analysis.Analyzer) int {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		return 1
	}
	// cmd/go expects the facts file even though simvet exports none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	pkg, files, info, err := typecheck(fset, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		return 1
	}

	found := 0
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				found++
				fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, a.Name)
			},
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "simvet: %s: %v\n", a.Name, err)
			return 1
		}
	}
	if found > 0 {
		return 2
	}
	return 0
}

func readConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return cfg, nil
}

// typecheck parses the package's own files and checks them against
// the export data of its dependencies.
func typecheck(fset *token.FileSet, cfg *Config) (*types.Package, []*ast.File, *types.Info, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := load.NewInfo()
	conf := types.Config{
		Importer:  &cfgImporter{gc: gcImporter(fset, cfg)},
		GoVersion: strings.TrimSpace(cfg.GoVersion),
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return pkg, files, info, nil
}

// cfgImporter resolves imports through the config's ImportMap and
// PackageFile tables, special-casing unsafe.
type cfgImporter struct {
	gc types.Importer
}

func (ci *cfgImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ci.gc.Import(path)
}

func gcImporter(fset *token.FileSet, cfg *Config) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
