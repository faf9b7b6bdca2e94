package nanoxbar_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignInventoryListsEveryPackage keeps DESIGN.md §1 in step with
// the tree: every directory under internal/, pkg/ and cmd/ that holds a
// non-test Go file must appear in the §1 table as a backticked path.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	// The header is matched with its trailing space: "## §1" alone
	// would also match §10 to §14.
	start := strings.Index(string(doc), "\n## §1 ")
	if start < 0 {
		t.Fatal(`DESIGN.md has no "## §1 " section`)
	}
	inventory := string(doc[start+1:])
	if end := strings.Index(inventory, "\n## "); end >= 0 {
		inventory = inventory[:end]
	}

	listed := map[string]bool{}
	for _, root := range []string{"internal", "pkg", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			pkg := filepath.ToSlash(filepath.Dir(path))
			if _, seen := listed[pkg]; !seen {
				listed[pkg] = strings.Contains(inventory, "`"+pkg+"`")
				if !listed[pkg] {
					t.Errorf("DESIGN.md §1 does not list `%s`", pkg)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(listed) == 0 {
		t.Fatal("found no packages — the check checked nothing")
	}
}
