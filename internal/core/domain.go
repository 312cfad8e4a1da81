package core

import (
	"context"
	"fmt"
	"sync"

	"wls/internal/attrs"
	"wls/internal/rmi"
	"wls/internal/tuple"
	"wls/internal/wire"
)

// Domain is the administrative unit of §4: "the unit of startup, shutdown,
// configuration, and monitoring — which can contain multiple clusters".
// The admin server holds the configuration of every managed server;
// managed servers may also keep a replica of their own slice on local disk
// so they "can start more rapidly and more autonomously" (§5.1, benchmark
// E23).
type Domain struct {
	Name string

	mu       sync.Mutex
	clusters map[string][]string          // cluster name → server names
	config   map[string]map[string]string // server name → config
}

// NewDomain creates an empty domain.
//
//wls:nolint unreached -- library-only: §5.1, TestDomainConfig
func NewDomain(name string) *Domain {
	return &Domain{
		Name:     name,
		clusters: make(map[string][]string),
		config:   make(map[string]map[string]string),
	}
}

// AddServer registers a managed server with its configuration.
func (d *Domain) AddServer(cluster, server string, config map[string]string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clusters[cluster] = append(d.clusters[cluster], server)
	cp := make(map[string]string, len(config))
	for k, v := range config {
		cp[k] = v
	}
	cp["domain"] = d.Name
	cp["cluster"] = cluster
	d.config[server] = cp
}

// ConfigOf returns a copy of a server's configuration.
func (d *Domain) ConfigOf(server string) (map[string]string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cfg, ok := d.config[server]
	if !ok {
		return nil, false
	}
	out := make(map[string]string, len(cfg))
	for k, v := range cfg {
		out[k] = v
	}
	return out, true
}

// AdminServiceName is the admin server's RMI surface.
const AdminServiceName = "wls.admin"

// AdminService exposes the domain configuration to booting servers.
func (d *Domain) AdminService() *rmi.Service {
	return &rmi.Service{
		Name:   AdminServiceName,
		System: true,
		Methods: map[string]rmi.MethodSpec{
			"getConfig": {Handler: func(ctx context.Context, c *rmi.Call) ([]byte, error) {
				dec := wire.NewDecoder(c.Args)
				server := dec.String()
				if err := dec.Err(); err != nil {
					return nil, err
				}
				cfg, ok := d.ConfigOf(server)
				if !ok {
					return nil, &rmi.AppError{Msg: "no such server: " + server}
				}
				return encodeConfig(cfg), nil
			}},
		},
	}
}

// encodeConfig writes a server's configuration as an attribute list in
// key order.
func encodeConfig(cfg map[string]string) []byte {
	e := wire.NewEncoder(128)
	attrs.AppendMap(e, cfg)
	return e.Bytes()
}

func decodeConfig(raw []byte) (map[string]string, error) {
	list, err := attrs.Read(wire.NewDecoder(raw), false)
	if err != nil {
		return nil, fmt.Errorf("core: config: %w", err)
	}
	return attrs.Map(list), nil
}

// configSpace is the store space holding the local config replica.
const configSpace = "wls.config"

// BootFromAdmin fetches a server's configuration from the admin server —
// the dependent boot path.
//
//wls:nolint unreached -- library-only: §5.1, TestBootFromAdminAndLocalReplica
func BootFromAdmin(ctx context.Context, node rmi.Node, adminAddr, server string) (map[string]string, error) {
	e := wire.NewEncoder(32)
	e.String(server)
	stub := rmi.NewStub(AdminServiceName, node, rmi.StaticView(adminAddr))
	res, err := stub.Invoke(ctx, "getConfig", e.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeConfig(res.Body)
}

// SaveLocalConfig replicates a server's configuration to its local
// store, enabling autonomous boots.
//
//wls:nolint unreached -- library-only: §5.1, TestBootFromAdminAndLocalReplica
func SaveLocalConfig(st *tuple.Store, server string, cfg map[string]string) error {
	return st.Put(configSpace, server, encodeConfig(cfg))
}

// BootFromLocal reads the locally replicated configuration — the §5.1
// autonomous boot path that needs no admin server round trip.
//
//wls:nolint unreached -- library-only: §5.1, TestBootFromAdminAndLocalReplica
func BootFromLocal(st *tuple.Store, server string) (map[string]string, error) {
	raw, ok := st.Get(configSpace, server)
	if !ok {
		return nil, fmt.Errorf("core: no local config replica for %s", server)
	}
	return decodeConfig(raw)
}
