package peak

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageDocsPresent enforces the documentation floor: every package in
// the module — the facade, every internal package and every command — must
// carry a godoc package comment. It runs as part of the tier-1 recipe
// (ROADMAP.md) so an undocumented package fails CI, not review.
func TestPackageDocsPresent(t *testing.T) {
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no godoc package comment", name, dir)
			}
		}
	}
	if len(seen) < 15 {
		t.Fatalf("only %d package dirs scanned — walk is broken", len(seen))
	}
}

// TestTraceExportedDocsPresent holds the observability layer to a
// stricter floor than the package-comment rule: every exported
// declaration of internal/trace — each event kind and metric kind
// constant, every type, function and method — must carry its own doc
// comment, and every exported field of the Event struct must too,
// because OBSERVABILITY.md's event-schema reference is written against
// those comments and silently drifts when they go missing.
func TestTraceExportedDocsPresent(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "trace"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	documented := func(groups ...*ast.CommentGroup) bool {
		for _, g := range groups {
			if g != nil && strings.TrimSpace(g.Text()) != "" {
				return true
			}
		}
		return false
	}
	checked := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					checked++
					if !documented(d.Doc) {
						t.Errorf("%s: exported %s has no doc comment",
							fset.Position(d.Pos()), d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							checked++
							if !documented(d.Doc, s.Doc, s.Comment) {
								t.Errorf("%s: exported type %s has no doc comment",
									fset.Position(s.Pos()), s.Name.Name)
							}
							// The Event struct is the wire schema: every
							// exported field needs its own comment.
							if s.Name.Name != "Event" {
								continue
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								t.Errorf("Event is not a struct")
								continue
							}
							for _, fld := range st.Fields.List {
								for _, nm := range fld.Names {
									if !nm.IsExported() {
										continue
									}
									checked++
									if !documented(fld.Doc, fld.Comment) {
										t.Errorf("%s: Event field %s has no doc comment",
											fset.Position(nm.Pos()), nm.Name)
									}
								}
							}
						case *ast.ValueSpec:
							for _, nm := range s.Names {
								if !nm.IsExported() {
									continue
								}
								checked++
								if !documented(d.Doc, s.Doc, s.Comment) {
									t.Errorf("%s: exported %s has no doc comment",
										fset.Position(nm.Pos()), nm.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	// 14 event kinds + the Event fields alone clear this floor; a low
	// count means the parse silently matched nothing.
	if checked < 40 {
		t.Fatalf("only %d exported declarations checked — parse is broken", checked)
	}
}

// TestResilienceExportedDocsPresent extends the strict per-declaration
// floor of TestTraceExportedDocsPresent to the service-resilience layer:
// every exported type, function, method and constant of internal/serve
// and internal/chaos must carry its own doc comment. The serve package
// is the operational surface (states, stats, breaker phases appear in
// JSON responses and runbooks) and the chaos package is the proof of the
// resilience contract — both drift silently without this check.
func TestResilienceExportedDocsPresent(t *testing.T) {
	documented := func(groups ...*ast.CommentGroup) bool {
		for _, g := range groups {
			if g != nil && strings.TrimSpace(g.Text()) != "" {
				return true
			}
		}
		return false
	}
	checked := 0
	for _, dir := range []string{
		filepath.Join("internal", "serve"),
		filepath.Join("internal", "chaos"),
	} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if !d.Name.IsExported() {
							continue
						}
						checked++
						if !documented(d.Doc) {
							t.Errorf("%s: exported %s has no doc comment",
								fset.Position(d.Pos()), d.Name.Name)
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								if !s.Name.IsExported() {
									continue
								}
								checked++
								if !documented(d.Doc, s.Doc, s.Comment) {
									t.Errorf("%s: exported type %s has no doc comment",
										fset.Position(s.Pos()), s.Name.Name)
								}
							case *ast.ValueSpec:
								for _, nm := range s.Names {
									if !nm.IsExported() {
										continue
									}
									checked++
									if !documented(d.Doc, s.Doc, s.Comment) {
										t.Errorf("%s: exported %s has no doc comment",
											fset.Position(nm.Pos()), nm.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// Job states + breaker phases + the Server/Options/Stats/Config/Report
	// surfaces alone clear this; a low count means the parse matched nothing.
	if checked < 25 {
		t.Fatalf("only %d exported declarations checked — parse is broken", checked)
	}
}

// TestStoreExportedDocsPresent extends the strict per-declaration floor
// to the persistent warm-start store: every exported type, function,
// method and constant of internal/store must carry its own doc comment.
// The store is a durability surface — its on-disk format, recovery
// semantics and stats fields appear in /stats JSON and in the
// ARCHITECTURE.md §3 contract — and those docs drift silently without
// this check.
func TestStoreExportedDocsPresent(t *testing.T) {
	documented := func(groups ...*ast.CommentGroup) bool {
		for _, g := range groups {
			if g != nil && strings.TrimSpace(g.Text()) != "" {
				return true
			}
		}
		return false
	}
	checked := 0
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "store"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					checked++
					if !documented(d.Doc) {
						t.Errorf("%s: exported %s has no doc comment",
							fset.Position(d.Pos()), d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							checked++
							if !documented(d.Doc, s.Doc, s.Comment) {
								t.Errorf("%s: exported type %s has no doc comment",
									fset.Position(s.Pos()), s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, nm := range s.Names {
								if !nm.IsExported() {
									continue
								}
								checked++
								if !documented(d.Doc, s.Doc, s.Comment) {
									t.Errorf("%s: exported %s has no doc comment",
										fset.Position(nm.Pos()), nm.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	// Store, Stats, RecoveryReport and the Open/Flush/memo surfaces alone
	// clear this floor; a low count means the parse matched nothing.
	if checked < 10 {
		t.Fatalf("only %d exported declarations checked — parse is broken", checked)
	}
}

// TestWarmStartDocsCrossReferenced pins the warm-start documentation to
// the code it describes: the handbooks must keep naming the persistent
// store's tier-1 check, flags and /stats surfaces, so a rename shows up
// here instead of leaving the docs describing a store that no longer
// exists.
func TestWarmStartDocsCrossReferenced(t *testing.T) {
	for file, wants := range map[string][]string{
		"ROADMAP.md": {
			"./internal/store/", // tier-1 -race list
			"-cache-dir",        // warm-start spot-check recipe
			"TestRatingMemoWarmMatchesCold",
			"TestServeWarmRestartByteIdentical",
		},
		"OBSERVABILITY.md": {
			"tier", // cache/rate event provenance field
			"disk_hits",
			"restored_jobs",
			"flush_error",
			"`profiles`", // single-flight reuse blocks in /stats
			"`measurements`",
			"once per key per process",
			"`lanes`", // lane budget and lending in the /stats pool block
			"`helpers`",
			"`late_helpers`",
			"TestServeLoneJobBorrowsIdleLane",
			"TestServeLoneJobGainsLateHelper",
		},
		"ARCHITECTURE.md": {
			"persistent store",
			"store.Memo",
			"Never memoize under faults",
			"AttachCache",
		},
		"README.md": {
			"-cache-dir",
			"TestRatingMemoWarmMatchesCold",
			"TestServeWarmRestartByteIdentical",
		},
		"EXPERIMENTS.md": {
			"Warm-start tuning",
			"TestRatingMemoWarmMatchesCold",
			"TestServeWarmRestartByteIdentical",
		},
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, want := range wants {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s no longer mentions %q — warm-start docs drifted", file, want)
			}
		}
	}
}

// TestResilienceDocsCrossReferenced pins the documentation satellites to
// the code they describe: the operational docs must keep naming the
// tier-1 chaos check and the resilience surfaces, so a future rename or
// deletion shows up here instead of leaving the handbooks describing
// endpoints that no longer exist.
func TestResilienceDocsCrossReferenced(t *testing.T) {
	for file, wants := range map[string][]string{
		"ROADMAP.md": {
			"./internal/chaos/",         // tier-1 -race list
			"peak-chaos -smoke -seed 1", // chaos smoke recipe
		},
		"OBSERVABILITY.md": {
			"Resilience",      // §6 heading
			"watchdog_stalls", // /stats surfaces
			"journal_recovery",
			"retry_after_seconds",
			"half_open", // breaker states are wire values
			"deadline_ms",
		},
		"ARCHITECTURE.md": {
			"CRC-framed", // crash-safe journal contract
			"RecoveryReport",
			"peak-chaos",
			"-watchdog",
		},
		"README.md": {
			"peak-chaos",
			"-deadline",
			"-breaker-failures",
		},
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, want := range wants {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s no longer mentions %q — resilience docs drifted", file, want)
			}
		}
	}
}

// TestNoVariantLadder is the ratchet on the one-entry-point-per-operation
// design: every optional layer (pool, compile cache, persistent store,
// journal, trace, metrics) is a field of core.Env, so no exported function
// of the facade, internal/core or internal/experiments may again be a
// per-layer variant of another — the X/XOn/XCached/XJournaled/XTraced/
// XStored/XFor ladder this test exists to keep deleted.
func TestNoVariantLadder(t *testing.T) {
	suffixes := []string{"On", "OnCached", "Cached", "Journaled", "Traced", "Stored", "For"}
	allowed := map[string]bool{
		// The benchmark harness (e2ebench/) builds against this exact
		// signature; it is the only measurement function, not a variant.
		"MeasurePerformanceStored": true,
	}
	checked := 0
	for _, src := range []string{".", filepath.Join("internal", "core"), filepath.Join("internal", "experiments")} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, src, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					checked++
					name := fd.Name.Name
					for _, suf := range suffixes {
						if strings.HasSuffix(name, suf) && !allowed[name] {
							t.Errorf("%s: exported %s is a per-layer variant (suffix %q); take a core.Env instead",
								fset.Position(fd.Pos()), name, suf)
							break
						}
					}
				}
			}
		}
	}
	// The facade alone exports 38 functions; a low count means the parse
	// matched nothing.
	if checked < 60 {
		t.Fatalf("only %d exported functions checked — parse is broken", checked)
	}
}
