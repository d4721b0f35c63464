// Package proto (fixture) exercises wireguard's plain-package checks: the
// names table, the dispatch switch, and the client send path.
package proto

const (
	opPing uint8 = iota + 1
	opQuery
	opHalf         // want `opcode opHalf is not registered in the opNames table` `opcode opHalf has no server dispatch case` `opcode opHalf is never sent by any client path`
	opNameless     // want `opcode opNameless is not registered in the opNames table; its RPC counter will read op_4`
	opUnsent       // want `opcode opUnsent is never sent by any client path`
	opUndispatched // want `opcode opUndispatched has no server dispatch case`
)

var opNames = [...]string{
	opPing:         "ping",
	opQuery:        "query",
	opUnsent:       "unsent",
	opUndispatched: "undispatched",
}

// dispatch is the daemon's switch.
func dispatch(op uint8) string {
	switch op {
	case opPing:
		return "pong"
	case opQuery:
		return "result"
	case opNameless:
		return "anon"
	case opUnsent:
		return "never"
	}
	return "unknown"
}

// send is the client side.
func send(op uint8) {}

func client() {
	send(opPing)
	send(opQuery)
	send(opNameless)
	send(opUndispatched)
}
