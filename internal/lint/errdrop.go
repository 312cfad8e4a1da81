package lint

import (
	"go/ast"
)

// errdropPkgs are the packages whose error returns carry recovery
// obligations: the wire codec, the transport, the stores, the transaction
// log, and the durable messaging layer. A bare call statement silently
// discards the error; assigning to _ is treated as an explicit, visible
// decision and left alone. The trace envelope codec is included because a
// dropped ParseEnvelope error corrupts span parentage silently instead of
// failing the request. bufio is included because the batched transport
// writer path buffers I/O: a dropped Flush/Write error there means silent
// frame loss. The chaos harness is included because a dropped error there
// turns a failing fault-injection run into a silently vacuous one.
var errdropPkgs = map[string]bool{
	"wls/internal/wire":      true,
	"wls/internal/transport": true,
	"wls/internal/store":     true,
	"wls/internal/kv":        true,
	"wls/internal/tuple":     true,
	"wls/internal/tx":        true,
	"wls/internal/jms":       true,
	"wls/internal/chaostest": true,
	"wls/internal/trace":     true,
	"bufio":                  true,
}

// ErrDrop reports call statements that discard an error returned by the
// wire/transport/store/kv/tuple/tx/jms/chaostest packages (or by bufio,
// whose buffered writers defer I/O errors to Flush).
func ErrDrop() *Analyzer {
	a := &Analyzer{
		Name: "errdrop",
		Doc:  "flags discarded errors from wire/transport/store/kv/tuple/tx/jms/chaos/bufio calls",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObject(info, call)
				if obj == nil || !errdropPkgs[pkgPathOf(obj)] {
					return true
				}
				results := resultsOf(info, call)
				if results == nil {
					return true
				}
				for i := 0; i < results.Len(); i++ {
					if isErrorType(results.At(i).Type()) {
						pass.Reportf(call.Pos(),
							"%s.%s returns an error that is silently discarded; handle it or assign it to _ deliberately",
							obj.Pkg().Name(), obj.Name())
						break
					}
				}
				return true
			})
		}
	}
	return a
}
