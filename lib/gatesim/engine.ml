(* Compiled three-valued evaluation kernel.

   [create] compiles the netlist into a struct-of-arrays gate program:
   one flat int array of stride-4 records [op|out<<4; f0; f1; f2] in
   topological order (the netlist's level-partitioned [topo]), so
   [eval_pass] is a tight loop over unboxed ints — no gate records, no
   variant matches. Gate values live in packed ternary bit-planes (two
   parallel bit arrays, 32 trits per word; see {!Tri.Plane}), which
   turns the per-cycle whole-netlist work — change detection, activity
   marking, delta collection, state blits — into word-wide xor/popcount
   passes.

   Buf/Inv compile to And/Nand with a duplicated fanin (a AND a = a,
   a NAND a = NOT a in Kleene logic), so the runtime op set is just the
   six binary connectives plus mux, all evaluated by lookup tables
   generated from {!Tri.I} — the compiled kernel cannot disagree with
   the reference semantics ({!Refsim}) on any truth table entry.

   Dirty tracking is a bit-plane over *program positions*: the scanner
   skips clean words, pops set bits with ctz, and fanout marks are
   forward-only (a combinational reader's level is strictly greater, so
   its position is later), which is what makes the single forward scan a
   fixpoint.

   The architectural-state digest is a Zobrist hash maintained
   incrementally (two XORs per changed flop/input slot, plus the RAM
   hash {!Mem.content_hash} keeps on its own), and snapshots are
   copy-on-write: taking or restoring one is O(1) — it freezes the
   current planes and the next mutation clones them. *)

type ports = {
  reset : int;
  port_in : int array;
  mem_addr : int array;
  mem_rdata : int array;
  mem_wdata : int array;
  mem_ren : int;
  mem_wen : int;
  pc : int array;
  state : int array;
  ir : int array;
  fork_net : int option;
}

let xcode = Tri.I.x
let word_mask = 0xFFFFFFFF

(* Runtime opcodes. Binary connectives are 0..5 and index [bin_tbl];
   mux is 6. *)
let op_and = 0
let op_or = 1
let op_nand = 2
let op_nor = 3
let op_xor = 4
let op_xnor = 5
let op_mux = 6

(* Truth tables generated from Tri.I so the compiled kernel is
   semantically identical to the interpreted reference by construction.
   Index: (op lsl 4) lor (a lsl 2) lor b. *)
let bin_tbl =
  let ops =
    [| Tri.I.land_; Tri.I.lor_; Tri.I.lnand; Tri.I.lnor; Tri.I.lxor_;
       Tri.I.lxnor |]
  in
  let t = Array.make 96 0 in
  Array.iteri
    (fun op f ->
      for a = 0 to 2 do
        for b = 0 to 2 do
          t.((op lsl 4) lor (a lsl 2) lor b) <- f a b
        done
      done)
    ops;
  t

(* Index: (sel lsl 4) lor (a lsl 2) lor b. *)
let mux_tbl =
  let t = Array.make 48 0 in
  for s = 0 to 2 do
    for a = 0 to 2 do
      for b = 0 to 2 do
        t.((s lsl 4) lor (a lsl 2) lor b) <- Tri.I.mux s a b
      done
    done
  done;
  t

(* Plane accessors, hand-inlined for the hot loops. Codes are the Tri.I
   encoding with X normalized to v=0 (so only 0, 1, 2 occur). *)
let[@inline] pget vv vx i =
  let w = i lsr 5 and b = i land 31 in
  ((Array.unsafe_get vv w lsr b) land 1)
  lor (((Array.unsafe_get vx w lsr b) land 1) lsl 1)

let[@inline] pset vv vx i code =
  let w = i lsr 5 and b = i land 31 in
  let m = lnot (1 lsl b) in
  Array.unsafe_set vv w
    ((Array.unsafe_get vv w land m) lor ((code land 1) lsl b));
  Array.unsafe_set vx w
    ((Array.unsafe_get vx w land m) lor ((code lsr 1) lsl b))

(* The byte mirror: one trit code per net, kept equal to the planes, so
   a scalar read is one byte load instead of two plane words and
   shifts. *)
let[@inline] bget vb i = Char.code (Bytes.unsafe_get vb i)
let[@inline] bset vb i code = Bytes.unsafe_set vb i (Char.unsafe_chr code)

let[@inline] bit_set pl i =
  (Array.unsafe_get pl (i lsr 5) lsr (i land 31)) land 1 = 1

let c_words = Telemetry.Counter.make "engine.words_evaluated"
let c_cycles = Telemetry.Counter.make "engine.cycles"
let h_snapshot_ns = Telemetry.Histogram.make "engine.snapshot_ns"

(* The compiled gate program over every combinational gate. *)
type compiled = {
  c_prog : int array;  (* stride 4: [op|out<<4; f0; f1; f2], topo order *)
  c_fo_off : int array;  (* per net: offset into c_fo_pos, length n+1 *)
  c_fo_pos : int array;  (* program positions of combinational readers *)
  c_pw : int;  (* words in the program-position dirty plane *)
  c_pos : int array;  (* net id -> program position, -1 if not in it *)
  c_comb : int array;  (* bit-plane over net ids: nets in the program *)
  c_all : int array;  (* program-position plane with every position set *)
}

(* Per-netlist immutable compile results, memoized by physical identity:
   the static tier creates one engine per characterized block over the
   same netlist, and worker domains one replica each, so recompiling
   these per engine is pure waste. A concurrent recompute is harmless
   (last write wins, same tables). *)
type tables = {
  tb_full : compiled;
  tb_gkind : Bytes.t;  (* 1=Input, 2=Dff, 3=Dffe, 0 otherwise *)
  tb_gf0 : int array;  (* fanin 0 of Input/Dff/Dffe gates (en for Dffe) *)
  tb_xsp : int array;  (* bit-plane over net ids: Input|Dff|Dffe *)
  tb_islot : int array;  (* net id -> Zobrist slot of inputs, -1 otherwise *)
  tb_dff_e : Bytes.t;  (* per dff index: 1 iff Dffe *)
  tb_dff_f0 : int array;  (* d for Dff, en for Dffe *)
  tb_dff_f1 : int array;  (* d for Dffe *)
  tb_nw : int;  (* words per net-id plane *)
  tb_init_vv : int array;  (* initial planes: all X, constants folded in *)
  tb_init_vx : int array;
  tb_init_vb : Bytes.t;  (* their byte mirror *)
  tb_init_hash : int;
}

type t = {
  nl : Netlist.t;
  ports : ports;
  mem_ : Mem.t;
  tb : tables;
  (* Mutable simulation state. The arrays are copy-on-write: [snapshot]
     freezes them ([shared]), the next mutating entry point clones. *)
  mutable vv : int array;  (* value plane *)
  mutable vx : int array;  (* unknown plane *)
  mutable vb : Bytes.t;  (* byte mirror of vv/vx: one trit code per net *)
  mutable pv : int array;  (* previous-cycle value plane *)
  mutable px : int array;
  mutable av : int array;  (* activity bit-plane *)
  mutable pav : int array;  (* previous-cycle activity *)
  mutable dirty : int array;  (* dirty bit-plane over program positions *)
  mutable dff_next : int array;  (* pending flop codes, indexed like nl.dffs *)
  mutable shared : bool;
  mutable hash : int;  (* Zobrist hash over dff_next + input values *)
  mutable reset_drive : int;
  port_drive : int array;
  mutable cycle : int;
  mutable mid : bool;  (* between begin_cycle and finish_cycle *)
  cone : int array;  (* positions of the first settle, see [cone_plane] *)
  (* Per-engine scratch for finish_cycle's delta/X-active collection
     (the last finished cycle's lists: [nd] deltas, [nx] X-active nets)
     and its X-propagation candidates (a program-position plane, all
     zero between cycles); not part of the observable state (excluded
     from snapshots). *)
  scratch_deltas : int array;
  scratch_x : int array;
  mutable nd : int;
  mutable nx : int;
  scratch_xprop : int array;
}

let netlist t = t.nl
let ports t = t.ports
let mem t = t.mem_
let cycle_index t = t.cycle

let unshare t =
  if t.shared then begin
    t.vv <- Array.copy t.vv;
    t.vx <- Array.copy t.vx;
    t.vb <- Bytes.copy t.vb;
    t.pv <- Array.copy t.pv;
    t.px <- Array.copy t.px;
    t.av <- Array.copy t.av;
    t.pav <- Array.copy t.pav;
    t.dirty <- Array.copy t.dirty;
    t.dff_next <- Array.copy t.dff_next;
    t.shared <- false
  end

(* Compile the gate program over the combinational gates in (level, id)
   order, the order the forward-only dirty-scan fixpoint relies on. *)
let compile_program nl =
  let n = Netlist.gate_count nl in
  let gates = nl.Netlist.gates in
  let topo = nl.Netlist.topo in
  let ncomb = Array.length topo in
  let pw = Tri.Plane.words ncomb in
  let prog = Array.make (ncomb * 4) 0 in
  let pos_of = Array.make n (-1) in
  Array.iteri
    (fun k id ->
      pos_of.(id) <- k;
      let g = gates.(id) in
      let f = g.Netlist.fanins in
      let op, f0, f1, f2 =
        match g.Netlist.cell with
        | Netlist.Buf -> (op_and, f.(0), f.(0), 0)
        | Netlist.Inv -> (op_nand, f.(0), f.(0), 0)
        | Netlist.And2 -> (op_and, f.(0), f.(1), 0)
        | Netlist.Or2 -> (op_or, f.(0), f.(1), 0)
        | Netlist.Nand2 -> (op_nand, f.(0), f.(1), 0)
        | Netlist.Nor2 -> (op_nor, f.(0), f.(1), 0)
        | Netlist.Xor2 -> (op_xor, f.(0), f.(1), 0)
        | Netlist.Xnor2 -> (op_xnor, f.(0), f.(1), 0)
        | Netlist.Mux2 -> (op_mux, f.(0), f.(1), f.(2))
        | Netlist.Input | Netlist.Const _ | Netlist.Dff | Netlist.Dffe ->
          assert false
      in
      let p = k lsl 2 in
      prog.(p) <- (id lsl 4) lor op;
      prog.(p + 1) <- f0;
      prog.(p + 2) <- f1;
      prog.(p + 3) <- f2)
    topo;
  (* Fanout lists in program space: per net, the positions of its
     combinational readers (flop readers are sampled at cycle
     boundaries, not re-evaluated, so they don't appear). *)
  let fo_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      if pos_of.(g.Netlist.id) >= 0 then
        Array.iter
          (fun f -> fo_off.(f + 1) <- fo_off.(f + 1) + 1)
          g.Netlist.fanins)
    gates;
  for i = 0 to n - 1 do
    fo_off.(i + 1) <- fo_off.(i + 1) + fo_off.(i)
  done;
  let fo_pos = Array.make fo_off.(n) 0 in
  let cursor = Array.copy fo_off in
  Array.iter
    (fun (g : Netlist.gate) ->
      let pos = pos_of.(g.Netlist.id) in
      if pos >= 0 then
        Array.iter
          (fun f ->
            fo_pos.(cursor.(f)) <- pos;
            cursor.(f) <- cursor.(f) + 1)
          g.Netlist.fanins)
    gates;
  let comb = Array.make (Tri.Plane.words n) 0 in
  Array.iter
    (fun id -> comb.(id lsr 5) <- comb.(id lsr 5) lor (1 lsl (id land 31)))
    topo;
  let all = Array.make pw word_mask in
  if ncomb land 31 <> 0 && pw > 0 then
    all.(pw - 1) <- (1 lsl (ncomb land 31)) - 1;
  { c_prog = prog; c_fo_off = fo_off; c_fo_pos = fo_pos; c_pw = pw;
    c_pos = pos_of; c_comb = comb; c_all = all }

let build_tables nl =
  let n = Netlist.gate_count nl in
  let ndffs = Netlist.dff_count nl in
  let gates = nl.Netlist.gates in
  let nw = Tri.Plane.words n in
  let full = compile_program nl in
  (* Per-gate metadata for activity marking and digest maintenance. *)
  let gkind = Bytes.make n '\000' in
  let gf0 = Array.make n 0 in
  let xsp = Array.make nw 0 in
  let islot = Array.make n (-1) in
  let mark_xsp id = xsp.(id lsr 5) <- xsp.(id lsr 5) lor (1 lsl (id land 31)) in
  Array.iteri
    (fun j id ->
      Bytes.set gkind id '\001';
      islot.(id) <- ndffs + j;
      mark_xsp id)
    nl.Netlist.inputs;
  let dff_e = Bytes.make ndffs '\000' in
  let dff_f0 = Array.make ndffs 0 in
  let dff_f1 = Array.make ndffs 0 in
  Array.iteri
    (fun i id ->
      let g = gates.(id) in
      (match g.Netlist.cell with
      | Netlist.Dff ->
        Bytes.set gkind id '\002';
        dff_f0.(i) <- g.Netlist.fanins.(0)
      | Netlist.Dffe ->
        Bytes.set gkind id '\003';
        Bytes.set dff_e i '\001';
        dff_f0.(i) <- g.Netlist.fanins.(0);
        dff_f1.(i) <- g.Netlist.fanins.(1)
      | _ -> assert false);
      gf0.(id) <- gates.(id).Netlist.fanins.(0);
      mark_xsp id)
    nl.Netlist.dffs;
  (* All nets start X; constants get their value and are never dirty. *)
  let vv, vx = Tri.Plane.make n in
  for w = 0 to nw - 1 do
    vx.(w) <- word_mask
  done;
  if n land 31 <> 0 && nw > 0 then vx.(nw - 1) <- (1 lsl (n land 31)) - 1;
  Array.iter
    (fun (g : Netlist.gate) ->
      match g.Netlist.cell with
      | Netlist.Const c -> pset vv vx g.Netlist.id (Tri.to_int c)
      | _ -> ())
    gates;
  (* Initial digest: every flop slot and input slot holds X. *)
  let h = ref 0 in
  for i = 0 to ndffs - 1 do
    h := !h lxor Zhash.key i xcode
  done;
  for j = 0 to Array.length nl.Netlist.inputs - 1 do
    h := !h lxor Zhash.key (ndffs + j) xcode
  done;
  {
    tb_full = full;
    tb_gkind = gkind;
    tb_gf0 = gf0;
    tb_xsp = xsp;
    tb_islot = islot;
    tb_dff_e = dff_e;
    tb_dff_f0 = dff_f0;
    tb_dff_f1 = dff_f1;
    tb_nw = nw;
    tb_init_vv = vv;
    tb_init_vx = vx;
    tb_init_vb = Bytes.init n (fun i -> Char.unsafe_chr (pget vv vx i));
    tb_init_hash = !h;
  }

let tables_for = Parallel.identity_memo build_tables

(* The first settle of [begin_cycle] evaluates only the combinational
   fan-in of the memory address and read-enable pins, so the memory is
   read at settled values without first settling every other gate
   against the old read data and then again against the new. The fork
   net's fan-in joins it: the fork net is the one gate whose value may
   differ from its function of its fanins (a forced decision holds until
   a fanin changes), so it must see exactly the events of a full settle
   — its fan-in is evaluated in the same passes as before. Every other
   gate is consistent with its fanins, and settles once, after the read,
   to the value two full passes give it. *)
let cone_plane nl ports =
  let full = (tables_for nl).tb_full in
  let fork = match ports.fork_net with Some f -> [| f |] | None -> [||] in
  let inside =
    Netlist.fanin_cone nl
      (Array.concat [ ports.mem_addr; [| ports.mem_ren |]; fork ])
  in
  let pl = Array.make full.c_pw 0 in
  Array.iteri
    (fun k id ->
      if inside.(id) then pl.(k lsr 5) <- pl.(k lsr 5) lor (1 lsl (k land 31)))
    nl.Netlist.topo;
  pl

(* Once per port record and netlist, like [tables_for]. *)
let cone_for =
  let per_ports =
    Parallel.identity_memo (fun ports ->
        Parallel.identity_memo (fun nl -> cone_plane nl ports))
  in
  fun nl ports -> per_ports ports nl

let make nl ~ports ~mem tb =
  let ndffs = Netlist.dff_count nl in
  let n = Netlist.gate_count nl in
  {
    nl;
    ports;
    mem_ = mem;
    tb;
    vv = Array.copy tb.tb_init_vv;
    vx = Array.copy tb.tb_init_vx;
    vb = Bytes.copy tb.tb_init_vb;
    pv = Array.copy tb.tb_init_vv;
    px = Array.copy tb.tb_init_vx;
    av = Array.make tb.tb_nw 0;
    pav = Array.make tb.tb_nw 0;
    dirty = Array.copy tb.tb_full.c_all;
    dff_next = Array.make ndffs xcode;
    shared = false;
    hash = tb.tb_init_hash;
    reset_drive = xcode;
    port_drive = Array.make (Array.length ports.port_in) xcode;
    cycle = 0;
    mid = false;
    cone = cone_for nl ports;
    scratch_deltas = Array.make n 0;
    scratch_x = Array.make n 0;
    nd = 0;
    nx = 0;
    scratch_xprop = Array.make tb.tb_full.c_pw 0;
  }

let create nl ~ports ~mem = make nl ~ports ~mem (tables_for nl)

let set_reset t level = t.reset_drive <- Tri.to_int level

let set_port_in t trits =
  if Array.length trits <> Array.length t.port_drive then
    invalid_arg
      (Printf.sprintf
         "Engine.set_port_in: width mismatch (expected %d trits, got %d)"
         (Array.length t.port_drive) (Array.length trits));
  Array.iteri (fun i v -> t.port_drive.(i) <- Tri.to_int v) trits

let[@inline] mark_fanouts t id =
  let cur = t.tb.tb_full in
  let dirty = t.dirty in
  let stop = Array.unsafe_get cur.c_fo_off (id + 1) in
  for k = Array.unsafe_get cur.c_fo_off id to stop - 1 do
    let pos = Array.unsafe_get cur.c_fo_pos k in
    let w = pos lsr 5 in
    Array.unsafe_set dirty w
      (Array.unsafe_get dirty w lor (1 lsl (pos land 31)))
  done

(* Only entry point that writes a net value outside eval_pass. Keeps the
   Zobrist digest current when the net is a primary input. *)
let drive t id v =
  let old = bget t.vb id in
  if old <> v then begin
    bset t.vb id v;
    pset t.vv t.vx id v;
    let slot = Array.unsafe_get t.tb.tb_islot id in
    if slot >= 0 then
      t.hash <- t.hash lxor Zhash.key slot old lxor Zhash.key slot v;
    mark_fanouts t id
  end

(* Settle the dirty positions inside [mask] (a program-position plane);
   dirty positions outside it stay dirty for a later pass. *)
let eval_pass t mask =
  let cur = t.tb.tb_full in
  let dirty = t.dirty
  and prog = cur.c_prog
  and vb = t.vb
  and vv = t.vv
  and vx = t.vx in
  let pw = cur.c_pw in
  let words = ref 0 in
  let w = ref 0 in
  while !w < pw do
    let d = Array.unsafe_get dirty !w in
    let bits = d land Array.unsafe_get mask !w in
    incr words;
    if bits = 0 then incr w
    else begin
      (* Clear the lowest selected bit *before* evaluating: the
         evaluation may re-mark bits in this very word (forward
         fanouts), which the next iteration picks up by re-reading it. *)
      Array.unsafe_set dirty !w (d lxor (bits land (-bits)));
      let p = ((!w lsl 5) lor Tri.Plane.ctz bits) lsl 2 in
      let hd = Array.unsafe_get prog p in
      let op = hd land 15 in
      let out = hd lsr 4 in
      let a = bget vb (Array.unsafe_get prog (p + 1)) in
      let b = bget vb (Array.unsafe_get prog (p + 2)) in
      let nv =
        if op < 6 then
          Array.unsafe_get bin_tbl ((op lsl 4) lor (a lsl 2) lor b)
        else
          let c = bget vb (Array.unsafe_get prog (p + 3)) in
          Array.unsafe_get mux_tbl ((a lsl 4) lor (b lsl 2) lor c)
      in
      if nv <> bget vb out then begin
        bset vb out nv;
        pset vv vx out nv;
        mark_fanouts t out
      end
    end
  done;
  Telemetry.Counter.add c_words !words

(* One loop, no intermediate trit array; the same word as
   [Tri.Word.of_trits] over the bus's trits. *)
let sample t bus =
  let vb = t.vb in
  let v = ref 0 and x = ref 0 in
  for i = 0 to Array.length bus - 1 do
    let c = bget vb (Array.unsafe_get bus i) in
    v := !v lor ((c land 1) lsl i);
    x := !x lor ((c lsr 1) lsl i)
  done;
  Tri.Word.make ~width:(Array.length bus) ~v:!v ~x:!x

let value t id = Tri.of_int (Char.code (Bytes.get t.vb id))

let begin_cycle t =
  if t.mid then invalid_arg "Engine.begin_cycle: already mid-cycle";
  unshare t;
  t.mid <- true;
  (* Clock edge: flops take their pending values. *)
  let dffs = t.nl.Netlist.dffs and dff_next = t.dff_next in
  for i = 0 to Array.length dffs - 1 do
    drive t (Array.unsafe_get dffs i) (Array.unsafe_get dff_next i)
  done;
  (* External drives. *)
  drive t t.ports.reset t.reset_drive;
  let port_in = t.ports.port_in in
  for i = 0 to Array.length port_in - 1 do
    drive t port_in.(i) t.port_drive.(i)
  done;
  (* Settle the address cone only; the rest settles once, after the
     read. *)
  eval_pass t t.cone;
  (* Combinational memory read. *)
  let rdata = t.ports.mem_rdata in
  (match bget t.vb t.ports.mem_ren with
  | 0 -> () (* bus keeper: rdata holds its previous value *)
  | 1 ->
    let data = Mem.read t.mem_ (sample t t.ports.mem_addr) in
    for i = 0 to Array.length rdata - 1 do
      drive t rdata.(i) (Tri.to_int (Tri.Word.bit data i))
    done
  | _ ->
    for i = 0 to Array.length rdata - 1 do
      drive t rdata.(i) xcode
    done);
  eval_pass t t.tb.tb_full.c_all;
  match t.ports.fork_net with
  | Some f when bget t.vb f = xcode -> `Fork
  | Some _ | None -> `Ok

let force_fork t v =
  if not t.mid then invalid_arg "Engine.force_fork: not mid-cycle";
  (match v with
  | Tri.X -> invalid_arg "Engine.force_fork: cannot force X"
  | Tri.Zero | Tri.One -> ());
  unshare t;
  (match t.ports.fork_net with
  | None -> invalid_arg "Engine.force_fork: no fork net"
  | Some f -> drive t f (Tri.to_int v));
  eval_pass t t.tb.tb_full.c_all

(* The cycle's work without its record: pending flop values, the
   memory write, activity, and the delta/X-active lists left in the
   scratch arrays ([nd]/[nx] long) until the next cycle. *)
let commit_cycle t =
  if not t.mid then invalid_arg "Engine.finish_cycle: begin_cycle first";
  (match t.ports.fork_net with
  | Some f when bget t.vb f = xcode ->
    invalid_arg "Engine.finish_cycle: unresolved fork"
  | Some _ | None -> ());
  unshare t;
  t.mid <- false;
  let nl = t.nl in
  let vb = t.vb and vv = t.vv and vx = t.vx and pv = t.pv and px = t.px in
  let tb = t.tb in
  let nw = tb.tb_nw in
  let dff_e = tb.tb_dff_e and dff_f0 = tb.tb_dff_f0 and dff_f1 = tb.tb_dff_f1 in
  (* Pending flop values (visible next cycle). An enable-flop holds when
     its enable is 0, loads on 1, and on X keeps its value only if old
     and new agree. Each change is two XORs into the running digest. *)
  let dffs = nl.Netlist.dffs in
  let dff_next = t.dff_next in
  for i = 0 to Array.length dffs - 1 do
    let nv =
      if Bytes.unsafe_get dff_e i = '\000' then
        bget vb (Array.unsafe_get dff_f0 i)
      else begin
        let en = bget vb (Array.unsafe_get dff_f0 i) in
        let d = bget vb (Array.unsafe_get dff_f1 i) in
        let q = bget vb (Array.unsafe_get dffs i) in
        if en = 0 then q else if en = 1 then d else if d = q then q else xcode
      end
    in
    let ov = Array.unsafe_get dff_next i in
    if nv <> ov then begin
      t.hash <- t.hash lxor Zhash.key i ov lxor Zhash.key i nv;
      Array.unsafe_set dff_next i nv
    end
  done;
  (* Memory write (synchronous). *)
  let wen = bget vb t.ports.mem_wen in
  if wen <> 0 then begin
    let addr = sample t t.ports.mem_addr in
    let data = sample t t.ports.mem_wdata in
    Mem.write t.mem_ ~strobe:(Tri.of_int wen) addr data
  end;
  (* Activity marking. Base case, word-wide: a gate that changed value
     is active (constants never change, so they never set a bit). *)
  let av = t.av in
  for w = 0 to nw - 1 do
    Array.unsafe_set av w
      ((Array.unsafe_get vv w lxor Array.unsafe_get pv w)
      lor (Array.unsafe_get vx w lxor Array.unsafe_get px w))
  done;
  (* X-special cases, scanning only X-valued Input/Dff/Dffe bits: an X
     input is always (potentially) switching; an X flop only if its data
     could have moved — Dff when the data net was active last cycle,
     Dffe when the enable wasn't known-0 last cycle (a held unknown
     cannot toggle). *)
  let pav = t.pav in
  let xsp = tb.tb_xsp and gkind = tb.tb_gkind and gf0 = tb.tb_gf0 in
  for w = 0 to nw - 1 do
    let cand =
      Array.unsafe_get vx w
      land Array.unsafe_get xsp w
      land lnot (Array.unsafe_get av w)
    in
    if cand <> 0 then begin
      let c = ref cand in
      while !c <> 0 do
        let b = Tri.Plane.ctz !c in
        c := !c land (!c - 1);
        let id = (w lsl 5) lor b in
        let act =
          match Bytes.unsafe_get gkind id with
          | '\001' -> true
          | '\002' -> bit_set pav (Array.unsafe_get gf0 id)
          | _ -> pget pv px (Array.unsafe_get gf0 id) <> 0
        in
        if act then
          Array.unsafe_set av w (Array.unsafe_get av w lor (1 lsl b))
      done
    end
  done;
  (* X-propagated activity in dependency (program) order: an X-valued
     gate is active when an active fanin can actually reach its output.
     For and/or/xor-class cells an X output already implies every fanin
     is potentially controlling, so any active fanin suffices; a mux
     with a stable known select is only sensitive to the selected input
     (this sensitization matters: without it, every idle X register
     whose write-data bus toggles would be counted as potentially
     switching each cycle, grossly inflating the bound).

     Only X-valued, not yet active combinational nets can become active
     here, and a net's activity bit is written only at its own gate's
     position, so the candidate set can be taken word-wide up front: it
     is scattered into a program-position plane and walked in ascending
     position order, the same order (and so the same result) as a scan
     over every gate, but visiting only the candidates: in a concrete
     run, where few nets are X, a small fraction of the program. The
     walk leaves the plane zeroed for the next cycle. *)
  let cur = tb.tb_full in
  let prog = cur.c_prog and pos = cur.c_pos and comb = cur.c_comb in
  let xq = t.scratch_xprop in
  for w = 0 to nw - 1 do
    let c =
      ref
        (Array.unsafe_get vx w
        land lnot (Array.unsafe_get av w)
        land Array.unsafe_get comb w)
    in
    while !c <> 0 do
      let k = Array.unsafe_get pos ((w lsl 5) lor Tri.Plane.ctz !c) in
      c := !c land (!c - 1);
      Array.unsafe_set xq (k lsr 5)
        (Array.unsafe_get xq (k lsr 5) lor (1 lsl (k land 31)))
    done
  done;
  for kw = 0 to cur.c_pw - 1 do
    let ks = ref (Array.unsafe_get xq kw) in
    if !ks <> 0 then begin
      Array.unsafe_set xq kw 0;
      while !ks <> 0 do
        let p = ((kw lsl 5) lor Tri.Plane.ctz !ks) lsl 2 in
        ks := !ks land (!ks - 1);
        let hd = Array.unsafe_get prog p in
        let f0 = Array.unsafe_get prog (p + 1) in
        let any =
          if hd land 15 < 6 then
            bit_set av f0 || bit_set av (Array.unsafe_get prog (p + 2))
          else
            bit_set av f0
            ||
            let sel = bget vb f0 in
            if sel = 0 then bit_set av (Array.unsafe_get prog (p + 2))
            else if sel = 1 then bit_set av (Array.unsafe_get prog (p + 3))
            else
              bit_set av (Array.unsafe_get prog (p + 2))
              || bit_set av (Array.unsafe_get prog (p + 3))
        in
        if any then begin
          let out = hd lsr 4 in
          let ow = out lsr 5 in
          Array.unsafe_set av ow
            (Array.unsafe_get av ow lor (1 lsl (out land 31)))
        end
      done
    end
  done;
  (* Collect deltas and X-active sets word by word into per-engine
     scratch: changed bits become packed deltas, active-but-unchanged
     bits the X-active list, both in ascending net order. *)
  let nd = ref 0 and nx = ref 0 in
  let sd = t.scratch_deltas and sx = t.scratch_x in
  for w = 0 to nw - 1 do
    let diff =
      (Array.unsafe_get vv w lxor Array.unsafe_get pv w)
      lor (Array.unsafe_get vx w lxor Array.unsafe_get px w)
    in
    if diff <> 0 then begin
      let d = ref diff in
      while !d <> 0 do
        let b = Tri.Plane.ctz !d in
        d := !d land (!d - 1);
        let id = (w lsl 5) lor b in
        Array.unsafe_set sd !nd
          (Trace.pack ~net:id ~old_v:(pget pv px id) ~new_v:(bget vb id));
        incr nd
      done
    end;
    let xact = Array.unsafe_get av w land lnot diff in
    if xact <> 0 then begin
      let d = ref xact in
      while !d <> 0 do
        let b = Tri.Plane.ctz !d in
        d := !d land (!d - 1);
        Array.unsafe_set sx !nx ((w lsl 5) lor b);
        incr nx
      done
    end
  done;
  t.nd <- !nd;
  t.nx <- !nx;
  Array.blit vv 0 pv 0 nw;
  Array.blit vx 0 px 0 nw;
  Array.blit av 0 t.pav 0 nw;
  t.cycle <- t.cycle + 1;
  Telemetry.Counter.add c_cycles 1

(* The record of the last finished cycle: copies of the scratch lists
   and the probes (the probes' nets cannot change before the next
   [begin_cycle]). *)
let record t =
  {
    Trace.deltas = Array.sub t.scratch_deltas 0 t.nd;
    x_active = Array.sub t.scratch_x 0 t.nx;
    pc = sample t t.ports.pc;
    state = sample t t.ports.state;
    ir = sample t t.ports.ir;
  }

let finish_cycle t =
  commit_cycle t;
  record t

let last_deltas t = t.scratch_deltas
let last_delta_count t = t.nd

let advance t =
  match begin_cycle t with
  | `Ok -> commit_cycle t
  | `Fork -> failwith "Engine.step: unexpected fork (X on branch decision)"

let step t =
  advance t;
  record t

(* O(1): the flop/input hash is maintained incrementally, the RAM hash
   by Mem. Zobrist equality mirrors content equality (collisions are
   negligible — 63-bit keys), so dedup decisions match the old
   full-serialization MD5 digest. *)
let arch_digest t = Zhash.to_digest (t.hash lxor Mem.content_hash t.mem_)

let values_snapshot t = Array.init (Netlist.gate_count t.nl) (bget t.vb)

type snapshot = {
  s_vv : int array;
  s_vx : int array;
  s_vb : Bytes.t;
  s_pv : int array;
  s_px : int array;
  s_av : int array;
  s_pav : int array;
  s_dirty : int array;
  s_dff_next : int array;
  s_mem : Mem.snapshot;
  s_hash : int;
  s_reset_drive : int;
  s_port_drive : int array;
  s_cycle : int;
  s_mid : bool;
}

let snapshot_ t =
  t.shared <- true;
  {
    s_vv = t.vv;
    s_vx = t.vx;
    s_vb = t.vb;
    s_pv = t.pv;
    s_px = t.px;
    s_av = t.av;
    s_pav = t.pav;
    s_dirty = t.dirty;
    s_dff_next = t.dff_next;
    s_mem = Mem.snapshot t.mem_;
    s_hash = t.hash;
    s_reset_drive = t.reset_drive;
    s_port_drive = Array.copy t.port_drive;
    s_cycle = t.cycle;
    s_mid = t.mid;
  }

let snapshot t =
  if Telemetry.enabled () then begin
    let t0 = Telemetry.now_ns () in
    let s = snapshot_ t in
    Telemetry.Histogram.observe h_snapshot_ns
      (Int64.sub (Telemetry.now_ns ()) t0);
    s
  end
  else snapshot_ t

let restore t s =
  t.vv <- s.s_vv;
  t.vx <- s.s_vx;
  t.vb <- s.s_vb;
  t.pv <- s.s_pv;
  t.px <- s.s_px;
  t.av <- s.s_av;
  t.pav <- s.s_pav;
  t.dirty <- s.s_dirty;
  t.dff_next <- s.s_dff_next;
  t.shared <- true;
  Mem.restore t.mem_ s.s_mem;
  t.hash <- s.s_hash;
  t.reset_drive <- s.s_reset_drive;
  Array.blit s.s_port_drive 0 t.port_drive 0 (Array.length t.port_drive);
  t.cycle <- s.s_cycle;
  t.mid <- s.s_mid

(* Replica for a worker domain: shares the read-only netlist, compiled
   tables and ROM with [t]; owns fresh planes and RAM.
   The external drive levels are carried by [snapshot]/[restore], so a
   replica becomes interchangeable with the original the moment a
   snapshot is restored into it. *)
let create_like t = make t.nl ~ports:t.ports ~mem:(Mem.like t.mem_) t.tb

let of_snapshot t s =
  let e = create_like t in
  restore e s;
  e
