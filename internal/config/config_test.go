package config

import (
	"sync"
	"testing"
)

func TestDefaults(t *testing.T) {
	c := New()
	if c.Bool(KeyRDMAEnabled) {
		t.Fatal("RDMA enabled by default; paper's hybrid defaults to vanilla")
	}
	if !c.Bool(KeyCachingEnabled) {
		t.Fatal("caching should default on")
	}
	if c.Int(KeyMapSlots) != 4 || c.Int(KeyReduceSlots) != 4 {
		t.Fatal("paper's tuned slot counts are 4/4")
	}
	if c.Int(KeyHTTPPacketBytes) != 65536 {
		t.Fatal("default HTTP packet must be 64KB per paper §III-B.2")
	}
}

func TestZeroValueConfigServesDefaults(t *testing.T) {
	var c Config
	if c.Int(KeyBlockSize) != 256<<20 {
		t.Fatalf("zero-value config broken: %d", c.Int(KeyBlockSize))
	}
}

func TestNilConfigServesDefaults(t *testing.T) {
	var c *Config
	if c.Get(KeyRDMAEnabled) != "false" {
		t.Fatal("nil config should serve defaults")
	}
}

func TestSetAndTypedGet(t *testing.T) {
	c := New()
	c.SetBool(KeyRDMAEnabled, true)
	c.SetInt(KeyKVPairsPerPacket, 512)
	c.Set("custom.key", "hello")
	if !c.Bool(KeyRDMAEnabled) || c.Int(KeyKVPairsPerPacket) != 512 || c.Get("custom.key") != "hello" {
		t.Fatal("set/get mismatch")
	}
}

func TestMalformedFallsBackToDefault(t *testing.T) {
	c := New()
	c.Set(KeyMapSlots, "not a number")
	if c.Int(KeyMapSlots) != 4 {
		t.Fatalf("malformed int did not fall back: %d", c.Int(KeyMapSlots))
	}
	c.Set(KeyRDMAEnabled, "maybe")
	if c.Bool(KeyRDMAEnabled) {
		t.Fatal("malformed bool did not fall back")
	}
}

func TestUnknownKeyZeroValues(t *testing.T) {
	c := New()
	if c.Int("no.such.key") != 0 || c.Bool("no.such.key") || c.Get("no.such.key") != "" {
		t.Fatal("unknown keys must yield zero values")
	}
}

func TestClone(t *testing.T) {
	c := New()
	c.Set("a", "1")
	d := c.Clone()
	d.Set("a", "2")
	if c.Get("a") != "1" || d.Get("a") != "2" {
		t.Fatal("clone not independent")
	}
}

func TestValidate(t *testing.T) {
	c := New()
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	c.SetInt(KeyIOSortFactor, 1)
	if err := c.Validate(); err == nil {
		t.Fatal("io.sort.factor=1 accepted")
	}
	c = New()
	c.Set(KeyCachePriorityMode, "random")
	if err := c.Validate(); err == nil {
		t.Fatal("bad cache policy accepted")
	}
}

// TestValidateParallelCopies bounds the reducer's fetch parallelism: the
// RDMA copier sizes a ring of that many packet-sized slots per host
// connection, and a slot's tag keeps only its low 16 bits, so 70 000
// would ask for a 13 GiB ring whose tags alias.
func TestValidateParallelCopies(t *testing.T) {
	c := New()
	for _, ok := range []int64{1, 8, 4096} {
		c.SetInt(KeyParallelCopies, ok)
		if err := c.Validate(); err != nil {
			t.Fatalf("parallel copies %d rejected: %v", ok, err)
		}
	}
	for _, bad := range []int64{0, -1, 4097, 70000} {
		c.SetInt(KeyParallelCopies, bad)
		if err := c.Validate(); err == nil {
			t.Fatalf("parallel copies %d accepted", bad)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.SetInt(KeyKVPairsPerPacket, int64(j))
				_ = c.Int(KeyKVPairsPerPacket)
			}
		}(i)
	}
	wg.Wait()
}

func TestRobustnessKeyDefaults(t *testing.T) {
	c := New()
	if c.Int(KeyRDMAConnectRetries) != 4 {
		t.Fatalf("connect.retries default = %d, want 4", c.Int(KeyRDMAConnectRetries))
	}
	if c.Int(KeyRDMARequestTimeout) != 30000 {
		t.Fatalf("request.timeout default = %d, want 30000 ms", c.Int(KeyRDMARequestTimeout))
	}
}

func TestValidateRobustnessKeys(t *testing.T) {
	cases := []struct {
		key string
		ok  []int64
		bad []int64
	}{
		{KeyRDMAConnectRetries, []int64{0, 4, 1000}, []int64{-1, 1001}},
		{KeyRDMARequestTimeout, []int64{1, 30000, 600000}, []int64{0, -1, 600001}},
		{KeyTrackerExpiry, []int64{1, 10000, 3600000}, []int64{0, -5, 3600001}},
	}
	for _, tc := range cases {
		for _, v := range tc.ok {
			c := New()
			c.SetInt(tc.key, v)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s=%d rejected: %v", tc.key, v, err)
			}
		}
		for _, v := range tc.bad {
			c := New()
			c.SetInt(tc.key, v)
			if err := c.Validate(); err == nil {
				t.Fatalf("%s=%d accepted", tc.key, v)
			}
		}
	}
}

func TestValidateReadLeaseTimeout(t *testing.T) {
	c := New()
	c.SetInt(KeyRDMAReadLeaseTimeout, 0)
	if err := c.Validate(); err == nil {
		t.Fatal("zero lease timeout accepted")
	}
	c.SetInt(KeyRDMAReadLeaseTimeout, 50)
	if err := c.Validate(); err != nil {
		t.Fatalf("sane lease timeout rejected: %v", err)
	}
}
