package rmi

import "wls/internal/wire"

// A request names its service and method. The system's own names are known
// to both ends before any frame is sent, so a request carries each of them
// as a one-byte code — the static half of HPACK's tables (RFC 7541,
// Appendix A) and nothing more: no table per connection, which the
// simulated fabric has no connections to hold, the transport's parallel
// body decoders could not share, and a re-dial behind a cached connection
// would have to re-sync. Any other name — an EJB bean's, an application
// service's — is spelled out.
//
// A name is one uvarint whose low bit says which: v = i<<1 for entry i of
// builtinNames, v = len<<1 | 1 for a literal of len bytes, which follow.
// A table entry below 64 is one byte, as is a literal's prefix below 64
// bytes, the same as a length-prefixed string's. An empty literal or an
// index past the table is malformed.

// builtinNames is the fixed table of the system's service and method names.
// A name's code is its index, so the table is append-only, and any change
// to it is a change of wire format (bump wire.FormatVersion: a peer with
// another table would misread or refuse the codes). Keep it under 64
// entries, so that every code is one byte.
var builtinNames = [...]string{
	// §3.2 servlet engine, and the replica methods of every session manager.
	"wls.http", "request", "session.update.batch", "session.fetch",
	// The cluster view external clients bootstrap from (§2.2).
	ViewServiceName, viewMethod,
	// Two-phase commit branches.
	"wls.tx", "prepare", "commit", "rollback",
	// JMS: remote send and receive, store-and-forward.
	"wls.jms", "send", "deliver", "receive",
	// Singleton leases and their handoff.
	"wls.lease", "acquire", "renew", "release", "owner", "handoff",
	// Health, admin and management election.
	"wls.health", "check", "wls.admin", "getConfig",
	"wls.consensus", "requestVote", "heartbeat",
	// Web Services conversations.
	"wls.ws", "start", "call", "oneway", "callback", "import", "finish",
	// Stateful session beans (the bean's own service name is spelled).
	"create", "invoke", "remove",
}

// nameCodes maps a table name to its index; builtinBytes holds each entry
// as bytes, so a decoded name is a []byte whichever way it travelled.
var (
	nameCodes    = make(map[string]uint64, len(builtinNames))
	builtinBytes [len(builtinNames)][]byte
)

func init() {
	for i, n := range builtinNames {
		nameCodes[n] = uint64(i)
		builtinBytes[i] = []byte(n)
	}
}

// BuiltinNames returns a copy of the table, in code order.
//
//wls:nolint unreached -- test hook: TestBuiltinNamesTravelAsCodes
func BuiltinNames() []string { return append([]string(nil), builtinNames[:]...) }

// appendName writes name as its table code, or spelled out if the table
// does not hold it.
func appendName(e *wire.Encoder, name string) {
	if i, ok := nameCodes[name]; ok {
		e.Uint64(i << 1)
		return
	}
	e.Uint64(uint64(len(name))<<1 | 1)
	e.Raw(name)
}

// readName reads a name appendName wrote: a table entry's bytes, or the
// literal's, aliasing d's buffer. It returns nil for a malformed name (an
// empty literal, an index past the table, a cut-off field), so the caller
// tells success by a non-nil result.
func readName(d *wire.Decoder) []byte {
	v := d.Uint64()
	if v&1 == 0 {
		if d.Err() != nil || v>>1 >= uint64(len(builtinBytes)) {
			return nil
		}
		return builtinBytes[v>>1]
	}
	if v == 1 {
		return nil
	}
	return d.Raw(v >> 1)
}
