// ghttpd-overflow: synthesizing a crashing request for a Web server.
//
// The ghttpd 1.4 vulnerability (SecurityFocus BID 5960) is a buffer
// overflow on the logging path: serveconnection() passes the GET URL to
// Log(), which copies it into a fixed-size buffer without bounds checks.
// The coredump only says "out-of-bounds store inside do_log". ESD works
// backward from that and synthesizes a complete malicious HTTP request —
// method, URL long enough to overflow, terminators — byte by byte.
//
// Run with: go run ./examples/ghttpd-overflow
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"esd"
)

const server = `
// A scaled model of ghttpd's request path (buffer sizes reduced; the
// unchecked-copy bug mechanism is the real one).
int req_method[8];
int req_url[32];
int url_len;
int served;
int log_lines;

int read_token(int *dst, int cap, int term) {
	int n = 0;
	int c = getchar();
	while (c != term && c != -1 && c != '\n') {
		if (n >= cap - 1) {
			return -1;
		}
		dst[n] = c;
		n++;
		c = getchar();
	}
	dst[n] = 0;
	return n;
}

int parse_request() {
	int m = read_token(req_method, 8, ' ');
	if (m <= 0) {
		return -1;
	}
	url_len = read_token(req_url, 32, ' ');
	if (url_len <= 0) {
		return -1;
	}
	return 0;
}

int is_get() {
	if (req_method[0] == 'G' && req_method[1] == 'E' && req_method[2] == 'T') {
		return 1;
	}
	return 0;
}

int do_log(int ip) {
	int line[16];
	line[0] = '0' + ip % 10;
	line[1] = ' ';
	int pos = 2;
	for (int i = 0; i < url_len; i++) {
		line[pos] = req_url[i];    // unchecked copy: the overflow
		pos++;
	}
	line[pos] = 0;
	log_lines++;
	return line[0];
}

int serveconnection(int ip) {
	if (parse_request() < 0) {
		return -1;
	}
	if (!is_get()) {
		return -1;
	}
	do_log(ip);
	served++;
	return 0;
}

int main() {
	return serveconnection(7);
}`

func main() {
	prog, err := esd.CompileMiniC("ghttpd.c", server)
	if err != nil {
		log.Fatal(err)
	}

	// The user site: an attacker sent a long URL; the server crashed.
	fmt.Println("user site: server crashes on a long GET request...")
	rep, err := esd.SimulateUserSite(prog, &esd.UserInputs{
		Stdin: stdin("GET /cgi-bin/aaaaaaaaaaaaaaaaaaaa H"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)

	fmt.Println("synthesizing a request that reaches the same crash...")
	res, err := esd.New().Synthesize(context.Background(), prog, rep,
		esd.WithBudget(120*time.Second), esd.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		log.Fatalf("not synthesized within budget (%.1fs)", res.Stats.Duration.Seconds())
	}
	fmt.Printf("synthesized in %.2fs (%d states explored)\n\n",
		res.Stats.Duration.Seconds(), res.Stats.States)

	// Decode the synthesized stdin back into a request string.
	var req []byte
	for seq := 0; ; seq++ {
		v := res.Execution.E.Getchar(seq)
		if v < 0 {
			break
		}
		if v >= 32 && v < 127 {
			req = append(req, byte(v))
		} else {
			req = append(req, '.')
		}
	}
	fmt.Printf("synthesized request bytes: %q\n", string(req))
	fmt.Println("note the synthesized URL is just long enough to overflow the log buffer —")
	fmt.Println("ESD found the minimal explanation, not the attacker's exact bytes.")

	player, err := esd.NewPlayer(prog, res.Execution, esd.Strict)
	if err != nil {
		log.Fatal(err)
	}
	final, err := player.Run(1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplayback: %v\n", final.Status)
	if final.Crash != nil {
		fmt.Printf("reproduced: %s\n", final.Crash)
	}
}

func stdin(s string) []int64 {
	out := make([]int64, len(s))
	for i := range s {
		out[i] = int64(s[i])
	}
	return out
}
