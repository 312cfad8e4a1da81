package lint

// LoadDir parses and type-checks the sources in an arbitrary directory
// (used for analyzer fixtures under testdata, which the go tool ignores
// but which may import module packages).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.loadDir(dir, asPath)
}
