package core

import (
	"sort"
)

// Clusters lists the domain's clusters, sorted.
func (d *Domain) Clusters() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.clusters))
	for c := range d.clusters {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ServersIn lists a cluster's servers.
func (d *Domain) ServersIn(cluster string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.clusters[cluster]...)
}
