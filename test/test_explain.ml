(* Bound provenance: Ejson round-trips, Treestat invariants against the
   exploration counters, per-COI attribution sums, exporter
   well-formedness, and the bench regression gate (an injected 20%
   phase-time regression must be flagged). *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* ---------------- Ejson ---------------- *)

let test_ejson_roundtrip () =
  let v =
    Explain.Ejson.(
      Obj
        [
          ("name", Str {|quo"ted\slash|});
          ("n", Num 42.5);
          ("neg", Num (-3.));
          ("flag", Bool true);
          ("nil", Null);
          ("xs", Arr [ Num 1.; Num 2.5e-3; Str "a\nb"; Bool false ]);
          ("nested", Obj [ ("empty_arr", Arr []); ("empty_obj", Obj []) ]);
        ])
  in
  let compact = Explain.Ejson.to_string v in
  let pretty = Explain.Ejson.to_string ~indent:2 v in
  Alcotest.(check bool) "compact is one line" false (String.contains compact '\n');
  Alcotest.(check bool)
    "compact round-trips" true
    (Explain.Ejson.parse compact = v);
  Alcotest.(check bool)
    "pretty round-trips" true
    (Explain.Ejson.parse pretty = v)

let test_ejson_parse () =
  let v = Explain.Ejson.parse {| {"a": [1, 2.5, -3e2], "b": "xA\t"} |} in
  Alcotest.(check (option (list unit)))
    "array arity"
    (Some [ (); (); () ])
    Explain.Ejson.(Option.map (List.map ignore)
                     (Option.bind (member "a" v) to_list));
  Alcotest.(check (option string))
    "escapes decoded" (Some "xA\t")
    (Explain.Ejson.string_member "b" v);
  Alcotest.(check (option (float 1e-9)))
    "exponent" (Some (-300.))
    (match Explain.Ejson.member "a" v with
    | Some (Explain.Ejson.Arr [ _; _; x ]) -> Explain.Ejson.to_float x
    | _ -> None);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (Explain.Ejson.parse_opt bad = None))
    [ "{"; "[1,]"; {|{"a":}|}; "tru"; {|"unterminated|}; "1 2" ]

(* Number text is produced by the runtime's float formatter directly;
   it must be byte-identical to the [Printf] formulation on edge values
   and on random bit patterns. *)
let test_ejson_numbers () =
  let reference f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f
  in
  let check f =
    Alcotest.(check string)
      (Printf.sprintf "%h" f) (reference f)
      (Explain.Ejson.to_string (Explain.Ejson.Num f))
  in
  List.iter check
    [ 0.; -0.; 1.; -1.; 42.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.);
      1e15 +. 2.; 999999999999999.5; 4503599627370496.; 9007199254740993.;
      Float.min_float; -.Float.min_float; 5e-324; -5e-324;
      Float.pred Float.min_float; Float.max_float; -.Float.max_float;
      Float.infinity; Float.neg_infinity; 0.1; 1. /. 3.; 2.5e-3; 1e-300;
      123456789012.5; 0.000123456789012345; Float.epsilon;
      Float.succ 1.; Float.pred 1e15 ];
  let rng = Random.State.make [| 0xe150 |] in
  for _ = 1 to 20_000 do
    let f = Int64.float_of_bits (Random.State.bits64 rng) in
    if not (Float.is_nan f) then check f;
    (* and values in the ranges reports actually carry *)
    check (Random.State.float rng 1e-2);
    check (Float.round (Random.State.float rng 2e15) -. 1e15)
  done

(* ---------------- a small analyzed program ---------------- *)

let analysis =
  lazy
    (let open Benchprogs.Bench.E in
     let app =
       prologue
       @ [
           mov (abs Benchprogs.Bench.input_base) (dreg 4);
           mov (reg 4) (dabs Isa.Memmap.mpy);
           mov (imm 25) (dabs Isa.Memmap.op2);
           mul_reslo 5;
           mov (reg 5) (dabs Benchprogs.Bench.output_base);
         ]
     in
     let program =
       match
         Xbound.of_ast
           {
             Isa.Asm.name = "explain-tiny";
             entry = "start";
             sections =
               [
                 {
                   Isa.Asm.org = Isa.Memmap.rom_base;
                   items = (Isa.Asm.Label "start" :: app) @ Isa.Asm.halt_items;
                 };
               ];
           }
       with
       | Ok p -> p
       | Error e -> Alcotest.fail (Xbound.Error.to_string e)
     in
     match Xbound.analyze ~ctx:(Xbound.Ctx.create ~jobs:1 ()) program with
     | Ok a -> a
     | Error e -> Alcotest.fail (Xbound.Error.to_string e))

(* ---------------- Treestat ---------------- *)

let test_treestat_invariants () =
  let a = Lazy.force analysis in
  let raw =
    match Xbound.exact_detail a with
    | Some raw -> raw
    | None -> Alcotest.fail "expected an exact-tier analysis"
  in
  let ts = Core.Treestat.compute raw.Core.Analyze.tree in
  let st = raw.Core.Analyze.sym_stats in
  Alcotest.(check int) "fork nodes = exploration forks"
    st.Gatesim.Sym.forks ts.Core.Treestat.fork_nodes;
  Alcotest.(check int) "seen edges = dedup hits"
    st.Gatesim.Sym.dedup_hits ts.Core.Treestat.seen_edges;
  Alcotest.(check int) "every path ends or merges"
    st.Gatesim.Sym.paths
    (ts.Core.Treestat.end_paths + ts.Core.Treestat.seen_edges);
  Alcotest.(check int) "cycle count matches exploration"
    st.Gatesim.Sym.total_cycles ts.Core.Treestat.cycles;
  Alcotest.(check int) "density series covers every cycle"
    ts.Core.Treestat.cycles
    (Array.length ts.Core.Treestat.x_density);
  Alcotest.(check int) "density aligns with the flattened trace"
    (Array.length raw.Core.Analyze.flattened)
    (Array.length ts.Core.Treestat.x_density);
  Alcotest.(check bool) "max path bounded by total" true
    (ts.Core.Treestat.max_path_cycles <= ts.Core.Treestat.cycles);
  Array.iter
    (fun d ->
      Alcotest.(check bool) "density in [0,1]" true (d >= 0. && d <= 1.))
    ts.Core.Treestat.x_density;
  let mean, mx = Core.Treestat.density_stats ts in
  Alcotest.(check bool) "mean <= max" true (mean <= mx);
  Alcotest.(check bool) "input X spreads somewhere" true (mx > 0.)

(* The X-density series against a brute-force recount on a fork-heavy
   kernel: replay every net's value in [Trace.flatten] order from
   [initial], restoring the fork-point values before each taken child,
   and count the X nets over the whole netlist after every cycle. The
   replay also checks that each delta's recorded old value is the
   replayed one, so the replay itself is faithful. *)
let test_treestat_density_recount () =
  let p =
    match Xbound.bench "tHold" with
    | Ok p -> p
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  let raw =
    match Xbound.analyze ~ctx:(Xbound.Ctx.create ~jobs:1 ()) p with
    | Ok a -> Option.get (Xbound.exact_detail a)
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  let tree = raw.Core.Analyze.tree in
  let ts = Core.Treestat.compute tree in
  Alcotest.(check bool) "fork-heavy" true (ts.Core.Treestat.fork_nodes >= 10);
  let values = Array.copy tree.Gatesim.Trace.initial in
  let nets = Array.length values in
  let series = ref [] in
  let apply (cy : Gatesim.Trace.cycle) =
    Array.iter
      (fun d ->
        let net = Gatesim.Trace.net d in
        Alcotest.(check int) "delta old value = replayed value"
          values.(net) (Gatesim.Trace.old_v d);
        values.(net) <- Gatesim.Trace.new_v d)
      cy.Gatesim.Trace.deltas;
    let xs = Array.fold_left (fun n v -> if v = Tri.I.x then n + 1 else n) 0 values in
    series := (float_of_int xs /. float_of_int nets) :: !series
  in
  let rec go = function
    | Gatesim.Trace.Run { cycles; next } ->
      Array.iter apply cycles;
      go next
    | Gatesim.Trace.Fork { not_taken; taken } ->
      let at_fork = Array.copy values in
      go not_taken;
      Array.blit at_fork 0 values 0 nets;
      go taken
    | Gatesim.Trace.End_path | Gatesim.Trace.Seen _ -> ()
  in
  go tree.Gatesim.Trace.root;
  let recount = Array.of_list (List.rev !series) in
  Alcotest.(check int) "aligned with the flattened trace"
    (Array.length (Gatesim.Trace.flatten tree)) (Array.length recount);
  Alcotest.(check (array (float 0.))) "x_density = recount" recount
    ts.Core.Treestat.x_density

(* ---------------- Report ---------------- *)

let report =
  lazy
    (let a = Lazy.force analysis in
     match Xbound.explain ~top:3 a with
     | r -> r)

let test_attribution_sums () =
  let a = Lazy.force analysis in
  let r = Lazy.force report in
  Alcotest.(check (float 0.)) "peak carried over" (Xbound.peak_power_w a)
    r.Explain.Report.peak_power_w;
  Alcotest.(check bool) "has COIs" true (r.Explain.Report.cois <> []);
  List.iter
    (fun (c : Explain.Report.coi_report) ->
      let sum l = List.fold_left (fun acc (_, w) -> acc +. w) 0. l in
      let within_1pct s =
        Float.abs (s -. c.power_w) <= 0.01 *. Float.abs c.power_w
      in
      Alcotest.(check bool) "modules sum to cycle power" true
        (within_1pct (sum c.modules));
      Alcotest.(check bool) "classes sum to cycle power" true
        (within_1pct (sum c.classes));
      Alcotest.(check bool) "share consistent" true
        (feq ~eps:1e-12 c.share_of_peak (c.power_w /. r.peak_power_w));
      (* descending order *)
      let desc l =
        fst
          (List.fold_left
             (fun (ok, prev) (_, w) -> (ok && w <= prev, w))
             (true, Float.infinity) l)
      in
      Alcotest.(check bool) "modules descending" true (desc c.modules);
      Alcotest.(check bool) "classes descending" true (desc c.classes);
      let top = Explain.Report.top_modules c in
      Alcotest.(check bool) "top-3 prefix" true
        (List.length top <= 3
        && top
           = List.filteri (fun i _ -> i < List.length top) c.modules))
    r.Explain.Report.cois;
  let peak_coi =
    List.find
      (fun (c : Explain.Report.coi_report) ->
        c.cycle_index = r.Explain.Report.peak_index)
      r.Explain.Report.cois
  in
  Alcotest.(check bool) "peak COI attribution = reported peak" true
    (feq ~eps:(0.01 *. r.peak_power_w)
       (List.fold_left (fun acc (_, w) -> acc +. w) 0. peak_coi.modules)
       r.peak_power_w)

let test_report_tree_obs () =
  let a = Lazy.force analysis in
  let r = Lazy.force report in
  let t = r.Explain.Report.tree in
  Alcotest.(check int) "paths" a.Xbound.paths t.Explain.Report.paths;
  Alcotest.(check int) "forks" a.Xbound.forks t.Explain.Report.forks;
  Alcotest.(check int) "dedup" a.Xbound.dedup_hits t.Explain.Report.dedup_hits;
  Alcotest.(check int) "cycles" a.Xbound.total_cycles
    t.Explain.Report.total_cycles;
  Alcotest.(check bool) "density at peak within series" true
    (t.Explain.Report.x_density_at_peak >= 0.
    && t.Explain.Report.x_density_at_peak <= t.Explain.Report.x_density_max)

let test_exporters () =
  let r = Lazy.force report in
  (* JSON: parses with our own parser, carries the headline numbers *)
  let j = Explain.Ejson.parse (Explain.Report.to_json_string r) in
  Alcotest.(check (option string))
    "program" (Some "explain-tiny")
    (Explain.Ejson.string_member "program" j);
  Alcotest.(check (option (float 1e-12)))
    "peak power" (Some r.Explain.Report.peak_power_w)
    (Explain.Ejson.float_member "peak_power_w" j);
  (match Explain.Ejson.(Option.bind (member "cois" j) to_list) with
  | Some l ->
    Alcotest.(check int) "one JSON entry per COI"
      (List.length r.Explain.Report.cois)
      (List.length l)
  | None -> Alcotest.fail "cois missing from JSON");
  (* CSV: header + one row per (COI, module) *)
  let csv = Explain.Report.to_csv r in
  let lines =
    List.filter (fun s -> s <> "") (String.split_on_char '\n' csv)
  in
  let rows =
    List.fold_left
      (fun acc (c : Explain.Report.coi_report) -> acc + List.length c.modules)
      0 r.Explain.Report.cois
  in
  Alcotest.(check int) "csv rows" (1 + rows) (List.length lines);
  Alcotest.(check string) "csv header"
    "program,coi_cycle,power_mw,module,module_mw,share" (List.hd lines);
  (* table: mentions the attribution sum and the tree stats *)
  let table = Explain.Report.to_table r in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length table
      && (String.sub table i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "table shows sums" true (has "sum");
  Alcotest.(check bool) "table shows gate classes" true (has "gate classes");
  Alcotest.(check bool) "table shows X-density" true (has "X-density")

(* ---------------- Regress ---------------- *)

let base_record =
  {
    Explain.Regress.label = "base";
    timestamp = Some "2026-08-06T00:00:00Z";
    jobs = Some 4;
    results = [ ("a", 100.); ("b", 50.) ];
    phases = [ ("explore", 0.100); ("peak-power", 0.010); ("tiny", 1e-5) ];
    cache_cold_s = Some 1.0;
    cache_warm_s = Some 0.1;
    cache_speedup = Some 10.0;
    parallel_jobs = Some 4;
    parallel_speedup = Some 2.0;
    static_gap_pct = [ ("a", 40.0) ];
  }

let test_regress_detects_injection () =
  let cur =
    {
      base_record with
      Explain.Regress.label = "cur";
      phases = [ ("explore", 0.120); ("peak-power", 0.010); ("tiny", 5e-4) ];
    }
  in
  let deltas ~tol =
    Explain.Regress.compare_records ~tolerance_pct:tol ~base:base_record ~cur
      ()
  in
  let at10 = Explain.Regress.regressions (deltas ~tol:10.) in
  Alcotest.(check (list string))
    "20% slower phase flagged at 10% tolerance" [ "phase_s:explore" ]
    (List.map (fun (d : Explain.Regress.delta) -> d.metric) at10);
  Alcotest.(check bool) "positive pct = slow direction" true
    (match at10 with [ d ] -> feq ~eps:1e-6 d.pct 20. | _ -> false);
  Alcotest.(check (list string))
    "within 25% tolerance: clean" []
    (List.map
       (fun (d : Explain.Regress.delta) -> d.metric)
       (Explain.Regress.regressions (deltas ~tol:25.)));
  (* sub-millisecond phases are noise, never compared *)
  Alcotest.(check bool) "min_phase_s drops noise phases" true
    (not
       (List.exists
          (fun (d : Explain.Regress.delta) -> d.metric = "phase_s:tiny")
          (deltas ~tol:10.)))

let test_regress_direction () =
  (* faster runs and a higher speedup must not be regressions; a lower
     speedup counts in the slow direction *)
  let cur =
    {
      base_record with
      Explain.Regress.label = "cur";
      results = [ ("a", 50.); ("b", 50.) ];
      cache_speedup = Some 5.0;
      parallel_speedup = Some 1.0;
    }
  in
  let deltas =
    Explain.Regress.compare_records ~tolerance_pct:25. ~base:base_record ~cur
      ()
  in
  let find m =
    List.find (fun (d : Explain.Regress.delta) -> d.metric = m) deltas
  in
  Alcotest.(check bool) "2x faster is negative pct" true
    ((find "ns_per_run:a").pct < 0.);
  let sp = find "cache.speedup" in
  Alcotest.(check bool) "halved speedup is positive pct" true (sp.pct > 0.);
  Alcotest.(check bool) "and flagged" true sp.regression;
  let ps = find "parallel.speedup" in
  Alcotest.(check bool) "halved parallel speedup flagged" true ps.regression;
  (* a record measured at a different -jN is not comparable *)
  let other_jobs =
    Explain.Regress.compare_records ~tolerance_pct:25. ~base:base_record
      ~cur:{ cur with Explain.Regress.parallel_jobs = Some 8 }
      ()
  in
  Alcotest.(check bool) "different parallel_jobs: not compared" true
    (not
       (List.exists
          (fun (d : Explain.Regress.delta) -> d.metric = "parallel.speedup")
          other_jobs))

let test_regress_gated () =
  (* two regressions: one on a gated benchmark row, one elsewhere — only
     the gated one survives the filter *)
  let base =
    {
      base_record with
      results =
        [ ("symbolic-analysis-tea8-j1", 100.); ("cpu-elaboration", 100.) ];
    }
  in
  let cur =
    {
      base with
      Explain.Regress.label = "cur";
      results =
        [ ("symbolic-analysis-tea8-j1", 200.); ("cpu-elaboration", 200.) ];
    }
  in
  let deltas =
    Explain.Regress.compare_records ~tolerance_pct:25. ~base ~cur ()
  in
  let metrics ds =
    List.map (fun (d : Explain.Regress.delta) -> d.metric) ds
  in
  Alcotest.(check (list string))
    "gate keeps only matching regressions"
    [ "ns_per_run:symbolic-analysis-tea8-j1" ]
    (metrics
       (Explain.Regress.gated
          ~gates:[ "symbolic-analysis"; "concrete-100-cycles" ]
          deltas));
  Alcotest.(check (list string))
    "empty gate list means everything gates"
    (metrics (Explain.Regress.regressions deltas))
    (metrics (Explain.Regress.gated ~gates:[] deltas));
  Alcotest.(check (list string))
    "non-matching gate passes everything" []
    (metrics (Explain.Regress.gated ~gates:[ "no-such-row" ] deltas))

let test_regress_history_roundtrip () =
  let line =
    Explain.Ejson.to_string (Explain.Regress.to_history_json base_record)
  in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Explain.Regress.of_json ~label:"rt" (Explain.Ejson.parse line) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check (option string)) "timestamp survives"
      base_record.Explain.Regress.timestamp r.Explain.Regress.timestamp;
    Alcotest.(check (list (pair string (float 1e-9)))) "results survive"
      base_record.Explain.Regress.results r.Explain.Regress.results;
    Alcotest.(check (list (pair string (float 1e-9)))) "phases survive"
      base_record.Explain.Regress.phases r.Explain.Regress.phases;
    Alcotest.(check (option (float 1e-9))) "speedup survives"
      base_record.Explain.Regress.cache_speedup
      r.Explain.Regress.cache_speedup;
    Alcotest.(check (option int)) "parallel_jobs survives"
      base_record.Explain.Regress.parallel_jobs
      r.Explain.Regress.parallel_jobs;
    Alcotest.(check (option (float 1e-9))) "parallel speedup survives"
      base_record.Explain.Regress.parallel_speedup
      r.Explain.Regress.parallel_speedup

let () =
  Alcotest.run "explain"
    [
      ( "ejson",
        [
          Alcotest.test_case "round-trip" `Quick test_ejson_roundtrip;
          Alcotest.test_case "parse" `Quick test_ejson_parse;
          Alcotest.test_case "numbers match Printf" `Quick test_ejson_numbers;
        ] );
      ( "treestat",
        [
          Alcotest.test_case "invariants" `Quick test_treestat_invariants;
          Alcotest.test_case "density recount" `Quick
            test_treestat_density_recount;
        ] );
      ( "report",
        [
          Alcotest.test_case "attribution sums" `Quick test_attribution_sums;
          Alcotest.test_case "tree observability" `Quick test_report_tree_obs;
          Alcotest.test_case "exporters" `Quick test_exporters;
        ] );
      ( "regress",
        [
          Alcotest.test_case "detects injected regression" `Quick
            test_regress_detects_injection;
          Alcotest.test_case "direction normalization" `Quick
            test_regress_direction;
          Alcotest.test_case "gated filtering" `Quick test_regress_gated;
          Alcotest.test_case "history round-trip" `Quick
            test_regress_history_roundtrip;
        ] );
    ]
