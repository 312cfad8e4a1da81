package wsdl

import (
	"encoding/base64"
	"fmt"

	"wls/internal/soap"
	"wls/internal/wire"
)

// SOAPHandler bridges loosely-coupled clients (§2.2) into the conversation
// runtime: SOAP envelopes over HTTP drive the same server-side
// conversations that tightly-coupled ports reach over RMI.
//
// Protocol (header Action / ConversationID, body payload):
//
//	Action "start", payload = service name     → response payload = conversation id
//	Action <operation>, ConversationID set     → dispatch; response payload = result
//	Action "finish", ConversationID set        → tear down
//
// Callbacks are not delivered over this bridge: HTTP clients cannot be
// called back, exactly the asymmetry §4 discusses for the
// loosely-coupled Internet infrastructure (they poll instead).
//
//wls:nolint unreached -- library-only: §4, TestSOAPBridgeDrivesConversations
func (p *Port) SOAPHandler() soap.Handler {
	return func(action, convID, payload string) (string, error) {
		switch action {
		case "start":
			service := payload
			p.mu.Lock()
			def, ok := p.services[service]
			p.mu.Unlock()
			if !ok {
				return "", fmt.Errorf("wsdl: no such service: %s", service)
			}
			// The conversation id is created server-side here — the SOAP
			// client has no addressable location to embed (it is not
			// callable back), so the id embeds the server.
			id := p.newConvID()
			c := &Conversation{
				ID: id, Service: service, role: RoleServer, port: p, def: def,
				state: make(map[string]string),
			}
			p.mu.Lock()
			p.convs[id] = c
			p.mu.Unlock()
			if def.OnStart != nil {
				def.OnStart(c)
			}
			p.persist(c)
			p.reg.Counter("ws.conversations_started").Inc()
			return id, nil

		case "finish":
			p.dropConv(convID)
			return "", nil

		default:
			raw, err := base64.StdEncoding.DecodeString(payload)
			if err != nil {
				// Tolerate plain-text payloads for hand-written clients.
				raw = []byte(payload)
			}
			e := wire.NewEncoder(64 + len(raw))
			e.String(convID)
			e.String(action)
			e.Bytes2(raw)
			out, derr := p.dispatchOperation(e.Bytes(), true)
			if derr != nil {
				return "", derr
			}
			return string(out), nil
		}
	}
}
