package client_test

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/rope"
	"mmfs/internal/wire"
)

// A hostile or corrupt reply must not size the stub's allocations: each
// list-returning call is answered with a count of 2³²−1 and nothing
// behind it, which used to be a make([]T, 0, 2³²−1). It is a decode
// error now.
func TestHostileReplyCounts(t *testing.T) {
	statsPrefix := wire.NewEncoder().F64(0.5).U32(1).U32(1).U64(1).U32(1).U32(0).U32(0).U64(0).U64(0).U64(0).U32(0).U64(0).U64(0).U64(0)
	for i := 0; i < 3; i++ {
		statsPrefix.U32(0).U32(0).F64(0)
	}
	statsPrefix.U64(0).U64(0).U64(0)
	replies := map[wire.Op][]byte{
		wire.OpFetch:     wire.NewEncoder().U32(math.MaxUint32).Bytes(),
		wire.OpListRopes: wire.NewEncoder().U32(math.MaxUint32).U64(1).Bytes(),
		wire.OpTriggers:  wire.NewEncoder().U32(math.MaxUint32).I64(0).Str("x").Bytes(),
		wire.OpCheck:     wire.NewEncoder().U32(math.MaxUint32).Bytes(),
		wire.OpTextList:  wire.NewEncoder().U32(math.MaxUint32 - 7).Str("a").Bytes(),
		wire.OpStats:     statsPrefix.U32(math.MaxUint32).U16(0).Bytes(),
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			frame, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			op, _, err := wire.ParseRequest(frame)
			if err != nil {
				return
			}
			if err := wire.WriteFrame(conn, wire.OKResponse(replies[op])); err != nil {
				return
			}
		}
	}()
	c, err := client.DialOptions(lis.Addr().String(), client.Options{RPCTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	calls := map[string]func() error{
		"Fetch":     func() error { _, err := c.Fetch("u", 1, rope.VideoOnly, 0, 0); return err },
		"ListRopes": func() error { _, err := c.ListRopes(); return err },
		"Triggers":  func() error { _, err := c.Triggers("u", 1); return err },
		"Check":     func() error { _, err := c.Check(); return err },
		"TextList":  func() error { _, err := c.TextList(); return err },
		"Stats":     func() error { _, err := c.Stats(); return err },
	}
	for name, call := range calls {
		if err := call(); err == nil || !strings.Contains(err.Error(), "beyond body") {
			t.Errorf("%s over a reply claiming 2^32-1 items: %v", name, err)
		}
	}
}
