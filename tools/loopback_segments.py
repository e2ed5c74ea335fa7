#!/usr/bin/env python3
"""Run a command and report the TCP segments sent and received meanwhile.

Usage: loopback_segments.py COMMAND [ARG...]

Reads the kernel's TCP counters before and after COMMAND and prints their
deltas: `Tcp OutSegs` and `Tcp InSegs` from /proc/net/snmp, and pure ACKs
(`TcpExt TCPPureAcks` + `TCPHPAcks`, the ACKs received without data) from
/proc/net/netstat. When COMMAND's last stdout line is an hts_bench result
(a JSON object with an "attempted" count), it also prints each delta per
attempted op.

COMMAND's stdout passes through unchanged, so its last line stays its last
line; the report goes to stderr. The counters cover every socket in the
network namespace, not only COMMAND's loopback connections: traffic from
other processes in the namespace is counted too. Exits with COMMAND's exit
code. Linux only; stdlib only.

Example (the socket segments of a write_proc run):

    python3 tools/loopback_segments.py python3 bench/hts_bench/run.py \\
        --workload write_proc --seed 1 --seconds 3 --trace 0
"""

import json
import subprocess
import sys

SNMP = "/proc/net/snmp"
NETSTAT = "/proc/net/netstat"


def read_table(path, section):
    """The named section of a /proc/net/{snmp,netstat} file as a dict."""
    with open(path) as f:
        lines = [line.split() for line in f]
    for header, values in zip(lines, lines[1:]):
        if header and header[0] == section + ":" and values[0] == header[0]:
            return dict(zip(header[1:], (int(v) for v in values[1:])))
    return {}


def snapshot():
    tcp = read_table(SNMP, "Tcp")
    ext = read_table(NETSTAT, "TcpExt")
    return {
        "out_segs": tcp.get("OutSegs", 0),
        "in_segs": tcp.get("InSegs", 0),
        "pure_acks": ext.get("TCPPureAcks", 0) + ext.get("TCPHPAcks", 0),
    }


def attempted_ops(last_line):
    """The "attempted" count of an hts_bench result line, else None."""
    try:
        doc = json.loads(last_line)
    except ValueError:
        return None
    if isinstance(doc, dict) and isinstance(doc.get("attempted"), int):
        return doc["attempted"]
    return None


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    before = snapshot()
    proc = subprocess.Popen(argv[1:], stdout=subprocess.PIPE, text=True)
    last = ""
    for line in proc.stdout:
        sys.stdout.write(line)
        if line.strip():
            last = line.strip()
    sys.stdout.flush()
    code = proc.wait()
    after = snapshot()

    delta = {k: after[k] - before[k] for k in before}
    ops = attempted_ops(last)
    report = ["loopback_segments: TCP counters over the whole network "
              "namespace (every socket in it, not only this command's)"]
    for key, label in (("out_segs", "OutSegs"), ("in_segs", "InSegs"),
                       ("pure_acks", "pure ACKs (TCPPureAcks+TCPHPAcks)")):
        row = f"  {label}: {delta[key]}"
        if ops:
            row += f"  ({delta[key] / ops:.3f} per attempted op)"
        report.append(row)
    if ops:
        report.append(f"  attempted ops: {ops}")
    print("\n".join(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
