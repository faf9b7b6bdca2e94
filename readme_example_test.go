package nanoxbar_test

import (
	"os"
	"strings"
	"testing"
)

// TestReadmeSDKBlockIsExample keeps README's Go SDK block compiled: the
// first ```go block of README.md must be examples/sdk/main.go byte for
// byte, so every name it shows has a caller that builds.
func TestReadmeSDKBlockIsExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("examples/sdk/main.go")
	if err != nil {
		t.Fatal(err)
	}
	const open, fence = "```go\n", "```\n"
	start := strings.Index(string(readme), open)
	if start < 0 {
		t.Fatal("README.md has no ```go block")
	}
	block := string(readme[start+len(open):])
	end := strings.Index(block, fence)
	if end < 0 {
		t.Fatal("README.md's ```go block is not closed")
	}
	if block = block[:end]; block != string(example) {
		t.Errorf("README.md's Go SDK block differs from examples/sdk/main.go; copy the file into the block")
	}
}
