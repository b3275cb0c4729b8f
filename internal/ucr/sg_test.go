package ucr

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"rdmamr/internal/verbs"
)

func TestSendSGGathersOneMessage(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	hdr, err := cep.RegisterMemory([]byte("HDR|"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := cep.RegisterMemory([]byte("..payload.."))
	if err != nil {
		t.Fatal(err)
	}
	err = cep.SendSG(ctx, []verbs.SGE{
		{MR: hdr, Length: 4},
		{MR: body, Offset: 2, Length: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := sep.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("HDR|payload"); !bytes.Equal(msg, want) {
		t.Fatalf("gathered message = %q, want %q", msg, want)
	}
}

func TestSendSGRejectsOversizedTotal(t *testing.T) {
	cep, _ := connected(t)
	ctx := ctxT(t)
	big, err := cep.RegisterMemory(make([]byte, MaxMessage))
	if err != nil {
		t.Fatal(err)
	}
	err = cep.SendSG(ctx, []verbs.SGE{
		{MR: big, Length: MaxMessage},
		{MR: big, Length: 1},
	})
	if err == nil {
		t.Fatal("gathered total above MaxMessage accepted")
	}
}

func TestReadSGScattersFromRemote(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	src, err := sep.RegisterMemory([]byte("..manifest-payload.."))
	if err != nil {
		t.Fatal(err)
	}
	d1, err := cep.RegisterMemory(make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cep.RegisterMemory(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	err = cep.ReadSG(ctx, []verbs.SGE{
		{MR: d1, Length: 8},
		{MR: d2, Offset: 2, Length: 8},
	}, src.Addr()+2, src.RKey())
	if err != nil {
		t.Fatal(err)
	}
	if got := append(append([]byte{}, d1.Bytes()[:8]...), d2.Bytes()[2:10]...); !bytes.Equal(got, []byte("manifest-payload")) {
		t.Fatalf("scattered read = %q, want %q", got, "manifest-payload")
	}
}

func TestReadSGDeadRegionIsRemoteAccess(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	src, err := sep.RegisterMemory(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := cep.RegisterMemory(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	addr, rkey := src.Addr(), src.RKey()
	if err := src.Deregister(); err != nil {
		t.Fatal(err)
	}
	err = cep.ReadSG(ctx, []verbs.SGE{{MR: dst, Length: 32}}, addr, rkey)
	if err == nil {
		t.Fatal("read from deregistered region succeeded")
	}
	if !errors.Is(err, ErrRemoteAccess) {
		t.Fatalf("error %v does not match ErrRemoteAccess", err)
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("error %v does not match ErrTransport (classifier contract)", err)
	}
}

// TestSendSGConcurrentWithSend: gather sends interleave safely with
// staged sends on the same end-point (sendMu serializes them) and every
// message arrives intact.
func TestSendSGConcurrentWithSend(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	sg, err := cep.RegisterMemory([]byte("G"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := cep.Send(ctx, []byte("S")); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := cep.SendSG(ctx, []verbs.SGE{{MR: sg, Length: 1}}); err != nil {
				t.Errorf("sendSG: %v", err)
				return
			}
		}
	}()
	var staged, gathered int
	for i := 0; i < 2*n; i++ {
		msg, err := sep.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		switch string(msg) {
		case "S":
			staged++
		case "G":
			gathered++
		default:
			t.Fatalf("corrupt message %q", msg)
		}
	}
	wg.Wait()
	if staged != n || gathered != n {
		t.Fatalf("staged=%d gathered=%d, want %d each", staged, gathered, n)
	}
}
