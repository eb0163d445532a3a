(* Tests for the content-addressed analysis cache: key discipline
   (binary / config / version perturbation), corruption tolerance,
   single-flight under the domain pool, cached-vs-fresh determinism,
   the one-entry layout of an exact analysis, failed stores, and LRU
   eviction. *)

let tmpdir () =
  let d = Filename.temp_file "xbound-test-cache" "" in
  Sys.remove d;
  d

let rec rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir d);
    Sys.rmdir d
  end

(* entry containers live under two-hex-digit shard subdirectories *)
let rec entry_files d =
  Sys.readdir d |> Array.to_list
  |> List.concat_map (fun f ->
         let p = Filename.concat d f in
         if Sys.is_directory p then entry_files p else [ p ])

let env =
  lazy
    (let cpu = Tsupport.the_cpu () in
     (cpu, Core.Analyze.poweran_for cpu))

(* A small program whose binary differs in one immediate word. *)
let image k =
  let open Benchprogs.Bench.E in
  Tsupport.assemble_body ~name:"cachetest"
    (prologue
    @ [
        mov (abs Benchprogs.Bench.input_base) (dreg 4);
        mov (imm k) (dreg 5);
        mov (reg 5) (dabs Benchprogs.Bench.output_base);
      ])

let config =
  { Core.Analyze.default_config with Core.Analyze.loop_bound = 4; max_paths = 64 }

let result_digest (a : Core.Analyze.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( a.Core.Analyze.peak_power,
            a.Core.Analyze.peak_index,
            a.Core.Analyze.peak_energy,
            a.Core.Analyze.power_trace )
          []))

(* ---------------- key discipline ---------------- *)

let cache_key ?version ~config pa cpu img =
  Core.Key.analysis ?version ~revisit_limit:config.Core.Analyze.revisit_limit
    ~max_paths:config.Core.Analyze.max_paths
    ~max_cycles_per_path:config.Core.Analyze.max_cycles_per_path
    ~loop_bound:config.Core.Analyze.loop_bound pa cpu img

let test_key_perturbation () =
  let cpu, pa = Lazy.force env in
  let img = image 25 in
  let ck = cache_key ~config pa cpu img in
  (* flipping one immediate in the binary changes the key *)
  Alcotest.(check bool)
    "binary flip changes cache key" true
    (ck <> cache_key ~config pa cpu (image 26));
  (* an Algorithm 2 knob and an exploration knob both move it *)
  let config' = { config with Core.Analyze.loop_bound = 8 } in
  Alcotest.(check bool)
    "loop_bound changes the cache key" true
    (ck <> cache_key ~config:config' pa cpu img);
  let config'' = { config with Core.Analyze.max_paths = 65 } in
  Alcotest.(check bool)
    "max_paths changes the cache key" true
    (ck <> cache_key ~config:config'' pa cpu img);
  (* bumping the code version invalidates everything *)
  let v = Core.Key.analysis_version + 1 in
  Alcotest.(check bool)
    "version bump changes the cache key" true
    (ck <> cache_key ~version:v ~config pa cpu img)

(* Every memoized key equals its formula over plain [Cache.Key.of_value]
   digests computed from scratch — the formulas existing disk caches
   were written under. Asked twice, so the second answer comes from the
   identity memo. *)
let test_key_formulas () =
  let cpu, pa = Lazy.force env in
  let img = image 25 in
  let d = Cache.Key.of_value and i = string_of_int in
  let cpu_d = d (cpu.Cpu.netlist, cpu.Cpu.ports) and pa_d = d pa in
  let analysis =
    Cache.Key.combine
      [
        "analysis";
        i Core.Key.analysis_version;
        cpu_d;
        d img;
        i config.Core.Analyze.revisit_limit;
        i config.Core.Analyze.max_paths;
        i config.Core.Analyze.max_cycles_per_path;
        pa_d;
        i config.Core.Analyze.loop_bound;
      ]
  in
  for _ = 1 to 2 do
    Alcotest.(check string) "cpu digest" cpu_d (Core.Key.cpu cpu);
    Alcotest.(check string) "power digest" pa_d (Core.Key.poweran pa);
    Alcotest.(check string) "analysis key" analysis
      (cache_key ~config pa cpu img)
  done

(* The default and the msp430f1610 power contexts over one CPU, live at
   once and used in turn as Report.Context does: each keeps its own
   digest, and neither evicts the other from the memo. *)
let test_key_two_contexts () =
  let cpu, pa = Lazy.force env in
  let pa_f =
    Core.Analyze.poweran_for ~lib:Stdcell.msp430f1610 ~period:125e-9 cpu
  in
  let d = Cache.Key.of_value pa and d_f = Cache.Key.of_value pa_f in
  Alcotest.(check bool) "contexts differ" true (d <> d_f);
  for _ = 1 to 3 do
    Alcotest.(check string) "default context" d (Core.Key.poweran pa);
    Alcotest.(check string) "f1610 context" d_f (Core.Key.poweran pa_f)
  done;
  let calls = ref 0 in
  let memo = Parallel.identity_memo (fun p -> incr calls; Cache.Key.of_value p) in
  for _ = 1 to 3 do
    Alcotest.(check string) "memo default" d (memo pa);
    Alcotest.(check string) "memo f1610" d_f (memo pa_f)
  done;
  Alcotest.(check int) "each context digested once" 2 !calls;
  (* identity, not equality: an equal copy is a different value *)
  let copy = Marshal.from_string (Marshal.to_string pa []) 0 in
  Alcotest.(check string) "copy digest" d (memo copy);
  Alcotest.(check int) "copy digested on its own" 3 !calls

let test_memo_hit_miss () =
  let c = Cache.create () in
  let calls = ref 0 in
  let f () = incr calls; [ 1; 2; 3 ] in
  let k = Cache.Key.of_string "a" in
  Alcotest.(check (list int)) "computed" [ 1; 2; 3 ] (Cache.memo c ~ns:"t" ~key:k f);
  Alcotest.(check (list int)) "memoized" [ 1; 2; 3 ] (Cache.memo c ~ns:"t" ~key:k f);
  Alcotest.(check int) "f ran once" 1 !calls;
  (* a different namespace or key is a distinct entry *)
  ignore (Cache.memo c ~ns:"u" ~key:k f);
  ignore (Cache.memo c ~ns:"t" ~key:(Cache.Key.of_string "b") f);
  Alcotest.(check int) "distinct entries recompute" 3 !calls;
  let ct = Cache.counters c in
  Alcotest.(check int) "misses" 3 ct.Cache.misses;
  Alcotest.(check int) "mem hits" 1 ct.Cache.mem_hits

let test_exception_not_stored () =
  let c = Cache.create () in
  let k = Cache.Key.of_string "boom" in
  (match Cache.memo c ~ns:"t" ~key:k (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "propagated" "boom" m);
  (* nothing was stored: the next call computes *)
  Alcotest.(check int) "recomputed after raise" 7
    (Cache.memo c ~ns:"t" ~key:k (fun () -> 7))

(* ---------------- determinism & disk round-trip ---------------- *)

(* [f ()] under a fresh telemetry sink: its value, and whether it ran an
   exploration. *)
let explored f =
  let s = Telemetry.create () in
  let v = Telemetry.with_ambient s f in
  (v, List.exists (fun e -> e.Telemetry.name = "explore") (Telemetry.events s))

let test_determinism_and_incremental () =
  let cpu, pa = Lazy.force env in
  let img = image 25 in
  let dir = tmpdir () in
  let fresh = Core.Analyze.run ~config pa cpu img in
  (* cold: populated through the cache, bit-identical to fresh *)
  let c1 = Cache.create ~dir () in
  let cold = Core.Analyze.run ~config ~cache:c1 pa cpu img in
  Alcotest.(check string)
    "cold = fresh" (result_digest fresh) (result_digest cold);
  Alcotest.(check int) "cold run is one miss" 1 (Cache.counters c1).Cache.misses;
  (* warm, new Cache.t on the same directory = fresh process: whole
     result served from disk, bit-identical, nothing explored *)
  let c2 = Cache.create ~dir () in
  let warm, ran = explored (fun () -> Core.Analyze.run ~config ~cache:c2 pa cpu img) in
  Alcotest.(check string)
    "warm = fresh" (result_digest fresh) (result_digest warm);
  Alcotest.(check (list int)) "warm is one disk hit, no miss" [ 1; 0 ]
    [ (Cache.counters c2).Cache.disk_hits; (Cache.counters c2).Cache.misses ];
  Alcotest.(check bool) "warm explores nothing" false ran;
  (* changing only loop_bound is a different analysis: one miss, equal
     to a fresh run under the new bound *)
  let config' = { config with Core.Analyze.loop_bound = 8 } in
  let c3 = Cache.create ~dir () in
  let warm' = Core.Analyze.run ~config:config' ~cache:c3 pa cpu img in
  let fresh' = Core.Analyze.run ~config:config' pa cpu img in
  Alcotest.(check string)
    "new loop bound = fresh" (result_digest fresh') (result_digest warm');
  Alcotest.(check int) "new loop bound is one miss" 1 (Cache.counters c3).Cache.misses;
  (* clear removes every entry *)
  Cache.clear c3;
  Alcotest.(check (pair int int)) "cleared" (0, 0) (Cache.disk_stats c3);
  rm_rf dir

(* ---------------- store-once layout ---------------- *)

(* A cold exact analysis of [image 25] into a fresh directory: the
   directory and the fresh (uncached) result. *)
let cold_dir () =
  let cpu, pa = Lazy.force env in
  let img = image 25 in
  let dir = tmpdir () in
  ignore (Core.Analyze.run ~config ~cache:(Cache.create ~dir ()) pa cpu img);
  (dir, Core.Analyze.run ~config pa cpu img)

(* One entry per exact analysis, about the size of its tree alone:
   [flattened] shares the tree's records, and Marshal keeps sharing. *)
let test_store_once_layout () =
  let dir, fresh = cold_dir () in
  let rows = Cache.disk_stats_by_ns (Cache.create ~dir ()) in
  Alcotest.(check (list string)) "one analysis row" [ "analysis" ] (List.map fst rows);
  let entries, bytes = List.assoc "analysis" rows in
  Alcotest.(check int) "one analysis entry" 1 entries;
  let tree_bytes = String.length (Marshal.to_string fresh.Core.Analyze.tree []) in
  Alcotest.(check bool)
    (Printf.sprintf "entry %d B within 1%% of the tree's %d B" bytes tree_bytes)
    true
    (100 * bytes <= 101 * tree_bytes);
  rm_rf dir

(* A fresh Cache.t on a populated directory is a fresh process: the
   analysis loads from its one entry, equal to a fresh run, with no
   exploration, and its flattened cycles are the loaded tree's own
   records. *)
let test_fresh_process_rebuild () =
  let cpu, pa = Lazy.force env in
  let dir, fresh = cold_dir () in
  let c = Cache.create ~dir () in
  let warm, ran = explored (fun () -> Core.Analyze.run ~config ~cache:c pa cpu (image 25)) in
  Alcotest.(check string) "loaded = fresh" (result_digest fresh) (result_digest warm);
  Alcotest.(check bool) "flattened cycles = fresh" true
    (warm.Core.Analyze.flattened = fresh.Core.Analyze.flattened);
  let records = Gatesim.Trace.flatten warm.Core.Analyze.tree in
  Alcotest.(check bool) "flattened shares the tree's records" true
    (Array.length records > 0
    && Array.for_all2 ( == ) warm.Core.Analyze.flattened records);
  Alcotest.(check int) "one disk hit" 1 (Cache.counters c).Cache.disk_hits;
  Alcotest.(check bool) "no exploration" false ran;
  rm_rf dir

(* Truncating the entry costs a recomputation: it is counted corrupt,
   recomputed to the fresh result, and written back. *)
let test_corrupted_artifact () =
  let cpu, pa = Lazy.force env in
  let dir, fresh = cold_dir () in
  let file =
    match entry_files dir with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected one entry file, found %d" (List.length fs)
  in
  let size = In_channel.with_open_bin file in_channel_length in
  Unix.truncate file (size / 2);
  let c = Cache.create ~dir () in
  let a = Core.Analyze.run ~config ~cache:c pa cpu (image 25) in
  Alcotest.(check string) "= fresh" (result_digest fresh) (result_digest a);
  Alcotest.(check int) "corrupt counted" 1 (Cache.counters c).Cache.corrupt;
  Alcotest.(check int) "repaired" size
    (In_channel.with_open_bin file in_channel_length);
  let c = Cache.create ~dir () in
  ignore (Core.Analyze.run ~config ~cache:c pa cpu (image 25));
  Alcotest.(check int) "loads again" 1 (Cache.counters c).Cache.disk_hits;
  rm_rf dir

(* ---------------- failed stores ---------------- *)

let test_store_error_counted () =
  let file = Filename.temp_file "xbound-test-cache" "" in
  let c = Cache.create ~dir:(Filename.concat file "cache") () in
  let k = Cache.Key.of_string "unwritable" in
  Alcotest.(check (list int)) "value returned" [ 4 ]
    (Cache.memo c ~ns:"t" ~key:k (fun () -> [ 4 ]));
  Alcotest.(check int) "store error counted" 1 (Cache.counters c).Cache.store_errors;
  Alcotest.(check int) "nothing stored" 0 (Cache.counters c).Cache.stores;
  Sys.remove file

(* ---------------- corruption tolerance ---------------- *)

let test_corrupted_entry_is_a_miss () =
  let dir = tmpdir () in
  let k = Cache.Key.of_string "payload" in
  let c1 = Cache.create ~dir () in
  Alcotest.(check (list int)) "stored" [ 1; 2; 3 ]
    (Cache.memo c1 ~ns:"t" ~key:k (fun () -> [ 1; 2; 3 ]));
  let files = entry_files dir in
  Alcotest.(check int) "one entry on disk" 1 (List.length files);
  Alcotest.(check string) "stored sharded"
    (Filename.concat dir (String.sub k 0 2))
    (Filename.dirname (List.hd files));
  (* garble the container in place *)
  let path = List.hd files in
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  output_string oc "garbage-garbage-garbage";
  close_out oc;
  (* a fresh process must treat it as a miss, recompute, and repair *)
  let c2 = Cache.create ~dir () in
  Alcotest.(check (list int)) "recomputed" [ 9 ]
    (Cache.memo c2 ~ns:"t" ~key:k (fun () -> [ 9 ]));
  let ct = Cache.counters c2 in
  Alcotest.(check int) "corrupt entry counted" 1 ct.Cache.corrupt;
  Alcotest.(check int) "recomputed as a miss" 1 ct.Cache.misses;
  (* the repaired entry round-trips again *)
  let c3 = Cache.create ~dir () in
  Alcotest.(check (list int)) "repaired" [ 9 ]
    (Cache.memo c3 ~ns:"t" ~key:k (fun () -> [ 0 ]));
  Cache.clear c3;
  rm_rf dir

(* ---------------- single-flight under the domain pool ---------------- *)

let test_single_flight () =
  let c = Cache.create () in
  let pool = Parallel.Pool.create ~jobs:4 in
  let runs = Atomic.make 0 in
  let k = Cache.Key.of_string "flight" in
  let tasks = List.init 8 (fun i -> i) in
  let results =
    Parallel.Pool.map_list pool
      (fun _ ->
        Cache.memo c ~ns:"t" ~key:k (fun () ->
            Atomic.incr runs;
            (* hold the computation open so other domains arrive while
               it is in flight *)
            Unix.sleepf 0.05;
            42))
      tasks
  in
  Alcotest.(check (list int)) "all callers get the value"
    (List.map (fun _ -> 42) tasks)
    results;
  Alcotest.(check int) "computation ran exactly once" 1 (Atomic.get runs);
  let ct = Cache.counters c in
  Alcotest.(check int) "one miss" 1 ct.Cache.misses;
  Alcotest.(check int) "everyone else joined or hit" 7
    (ct.Cache.mem_hits + ct.Cache.joined)

(* ---------------- LRU eviction ---------------- *)

let test_lru_eviction () =
  let c = Cache.create ~mem_entries:2 () in
  let key i = Cache.Key.of_string (string_of_int i) in
  let calls = ref 0 in
  let get i = Cache.memo c ~ns:"t" ~key:(key i) (fun () -> incr calls; i) in
  ignore (get 0);
  ignore (get 1);
  ignore (get 2);
  (* capacity 2: key 0 fell off the tail *)
  Alcotest.(check int) "eviction counted" 1 (Cache.counters c).Cache.evictions;
  Alcotest.(check int) "evicted key recomputes" 0 (get 0);
  Alcotest.(check int) "four computations" 4 !calls;
  (* key 2 stayed resident through the re-insert of 0 *)
  ignore (get 2);
  Alcotest.(check int) "resident key is a hit" 4 !calls

(* The LRU holds one entry per exact analysis: two analyses fit in two
   entries. *)
let test_lru_holds_composites () =
  let cpu, pa = Lazy.force env in
  let dir = tmpdir () in
  let c = Cache.create ~dir ~mem_entries:2 () in
  let run k = ignore (Core.Analyze.run ~config ~cache:c pa cpu (image k)) in
  run 25;
  run 26;
  Cache.reset_counters c;
  run 25;
  let ct = Cache.counters c in
  Alcotest.(check (list int)) "mem hit, no disk hit, no miss" [ 1; 0; 0 ]
    [ ct.Cache.mem_hits; ct.Cache.disk_hits; ct.Cache.misses ];
  rm_rf dir

let () =
  Alcotest.run "cache"
    [
      ( "keys",
        [
          Alcotest.test_case "perturbation" `Quick test_key_perturbation;
          Alcotest.test_case "formulas" `Quick test_key_formulas;
          Alcotest.test_case "two power contexts" `Quick test_key_two_contexts;
          Alcotest.test_case "hit/miss" `Quick test_memo_hit_miss;
          Alcotest.test_case "exception" `Quick test_exception_not_stored;
        ] );
      ( "disk",
        [
          Alcotest.test_case "determinism + incremental" `Slow
            test_determinism_and_incremental;
          Alcotest.test_case "corruption" `Quick test_corrupted_entry_is_a_miss;
          Alcotest.test_case "store-once layout" `Quick test_store_once_layout;
          Alcotest.test_case "fresh-process rebuild" `Quick
            test_fresh_process_rebuild;
          Alcotest.test_case "corrupted artifact" `Quick test_corrupted_artifact;
          Alcotest.test_case "store error" `Quick test_store_error_counted;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "single-flight" `Quick test_single_flight;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction" `Quick test_lru_eviction;
          Alcotest.test_case "holds composites" `Quick test_lru_holds_composites;
        ] );
    ]
