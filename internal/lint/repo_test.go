package lint

import "testing"

// TestRepoIsLintClean is the self-enforcing gate: it runs every analyzer
// over every package of this module, so a plain `go test ./...` fails the
// moment someone reintroduces a direct wall-clock call, holds a mutex
// across a blocking operation, drops a wire/transport/store/tx error,
// re-arms time.After inside a loop, starts a trace span without
// finishing it, inverts a lock hierarchy, spawns a goroutine with no
// termination path, or leaves a function that no binary reaches, a field
// that nothing reads, or a setting that only tests set.
//
// To see the same diagnostics from the command line:
//
//	go run ./cmd/wlslint ./...
//
// To suppress a legitimate finding, annotate the line (with a reason):
//
//	//wls:wallclock <reason>
//	//wls:nolint <analyzer>[,<analyzer>] -- <reason>
//
// A function only tests call is moved into a _test.go file, or declared
// with //wls:nolint unreached -- <reason> in its doc comment; so is a
// setting only tests set, in the doc comment of its field or struct.
func TestRepoIsLintClean(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Default())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("wlslint found %d violation(s); see DESIGN.md \"Determinism & lint rules\"", len(diags))
	}
}
