"""Aggregates a gprof profile of the simulator by layer (C++ namespace).

Every function of the profile lands in exactly one layer:

* a function inside ``mutsvc::<ns>`` belongs to that namespace's layer
  (``simcheck`` and ``simrace`` count as ``sim``);
* ``std::function`` handlers belong to the layer of the callable they wrap,
  whose body the compiler inlined into them;
* the benchmark's own code (``perfbench::``) is ``other``;
* anything else (``std::`` and ``__gnu_cxx::`` template code, anonymous
  helpers) is split among its callers in proportion to the calls gprof's
  call graph counted, recursively, until a layer is reached; what has no
  caller, or only reaches itself, is ``other``.

Time spent in shared libraries (libc, libstdc++.so) is outside a gprof
profile: gprof samples only the executable's own text. run.py reports the
share of the process CPU time the profile saw as profile.coverage.
"""

import re
import subprocess

LAYERS = ("sim", "net", "db", "cache", "msg", "comp", "workload", "stats", "core", "apps")
NAMESPACE_LAYER = {ns: ns for ns in LAYERS}
NAMESPACE_LAYER.update({"simcheck": "sim", "simrace": "sim"})

_OPERATORS = re.compile(r"operator(\(\)|<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\[\])")
_PRIMARY = re.compile(r"^\[(\d+)\]\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+(?:[\d+]+\s+)?(.*?)\s+\[\d+\]$")
_PARENT = re.compile(r"^\s+[\d.]+\s+[\d.]+\s+(\d+)/\d+\s+(.*?)\s+\[(\d+)\]$")
_CYCLE = re.compile(r" <cycle \d+>$")


def _strip_templates(name):
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def _template_args(name, prefix):
    """Top-level template arguments of the first `prefix<...>` in name."""
    start = name.index(prefix) + len(prefix)
    args, depth, cur = [], 0, []
    for ch in name[start:]:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            if depth == 0:
                args.append("".join(cur).strip())
                return args
            depth -= 1
        elif ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    return args


def qualified_name(demangled):
    """`a::b::f` for a demangled signature: no return type, template
    arguments, parameters or clone suffix. Lambdas and local classes keep
    the name of the function that encloses them."""
    name = demangled.replace("(anonymous namespace)", "{anon}")
    name = re.sub(r" \[clone [^\]]*\]", "", name)
    name = re.sub(r" <cycle \d+>", "", name)
    name = _OPERATORS.sub("operator@", name)
    name = _strip_templates(name)
    depth = 0
    for i, ch in enumerate(name):
        if ch == "(":
            if depth == 0:
                name = name[:i]
                break
            depth += 1
        elif ch == ")":
            depth -= 1
    return name.strip().split(" ")[-1] if name.strip() else ""


def layer_of(demangled):
    """The layer a function's own code belongs to, "other" for the
    benchmark's code, or None when its callers decide."""
    if demangled.startswith("std::_Function_handler<"):
        args = _template_args(demangled, "std::_Function_handler<")
        if len(args) == 2:
            wrapped = layer_of(args[1])
            if wrapped is not None:
                return wrapped
    parts = qualified_name(demangled).split("::")
    if len(parts) >= 2 and parts[0] == "mutsvc":
        return NAMESPACE_LAYER.get(parts[1], "other")
    if parts[0] in ("perfbench", "main"):
        return "other"
    return None


def parse_flat(text):
    """{function: self seconds} from gprof's flat profile."""
    self_s = {}
    in_flat = False
    for line in text.splitlines():
        if line.startswith("Flat profile"):
            in_flat = True
            continue
        if in_flat and "Call graph" in line:
            break
        fields = line.split()
        if not in_flat or len(fields) < 4:
            continue
        try:
            seconds = float(fields[2])
            float(fields[0])
        except ValueError:
            continue  # header lines
        rest = fields[3:]
        while rest and rest[0].replace(".", "", 1).isdigit():
            rest = rest[1:]  # calls, self/call, total/call (absent when uncounted)
        name = " ".join(rest)
        self_s[name] = self_s.get(name, 0.0) + seconds
    return self_s


def parse_callers(text):
    """{function: [(caller, calls), ...]} from gprof's call graph. Calls made
    inside a cycle (a count without a total) are not caller arcs."""
    callers = {}
    names = {}
    block = []
    in_graph = False
    for line in text.splitlines():
        if "Call graph" in line:
            in_graph = True
        elif in_graph and line.startswith("Index by function name"):
            break
        elif in_graph and line.startswith("-----"):
            _add_entry(block, callers, names)
            block = []
        elif in_graph:
            block.append(line)
    _add_entry(block, callers, names)
    return {name: [(names.get(idx, ""), calls) for idx, calls in arcs]
            for name, arcs in callers.items()}


def _add_entry(block, callers, names):
    arcs = []
    for line in block:
        m = _PRIMARY.match(line)
        if m:
            name = _CYCLE.sub("", m.group(2))
            if "as a whole>" not in name:
                names[int(m.group(1))] = name
                callers.setdefault(name, []).extend(arcs)
            return
        p = _PARENT.match(line)
        if p:
            arcs.append((int(p.group(3)), int(p.group(1))))


def attribute(self_s, callers):
    """Self seconds per layer (plus "other")."""
    cache = {}

    def dist(name, active):
        if name in cache:
            return cache[name]
        layer = layer_of(name)
        if layer is not None:
            result = {layer: 1.0}
        else:
            arcs = [(c, n) for c, n in callers.get(name, []) if c and c not in active and n > 0]
            total = sum(n for _, n in arcs)
            result = {} if total else {"other": 1.0}
            for caller, n in arcs:
                for lay, share in dist(caller, active | {name}).items():
                    result[lay] = result.get(lay, 0.0) + share * n / total
        if not active:
            cache[name] = result
        return result

    out = {layer: 0.0 for layer in LAYERS + ("other",)}
    for name, seconds in self_s.items():
        if seconds:
            for layer, share in dist(name, frozenset()).items():
                out[layer] += seconds * share
    return out


def profile_layers(binary, gmon, cwd):
    """Runs gprof; returns (self seconds per layer, profile total seconds)."""
    text = subprocess.run(["gprof", "-b", str(binary), str(gmon)], cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=120).stdout
    self_s = parse_flat(text)
    return attribute(self_s, parse_callers(text)), sum(self_s.values())
