(* Every content key of both tiers. See key.mli. *)

type t = Cache.Key.t

(* 2: compiled gate-evaluation kernel — dedup digests switched from MD5
   serialization to incremental Zobrist hashes, so cached trees from
   version 1 reference stale digest strings.
   3: the "peak-power" artifact stopped storing the flattened cycles
   (the tree, "peak-power" and "peak-energy" were then disk-only
   entries). The exact tier has since become one "analysis" entry again
   without a bump: no version-3 code wrote "analysis" to disk, its
   stored type ([Analyze.t]) did not change, and the orphaned version-3
   artifact files are never read ([cache clear] removes them). Keeping
   3 keeps every "block" key and the wire [analysis_version] as they
   were. *)
let analysis_version = 3
let static_version = 1

let cpu =
  Parallel.identity_memo (fun (cpu : Cpu.t) ->
      Cache.Key.of_value (cpu.Cpu.netlist, cpu.Cpu.ports))

let poweran =
  Parallel.identity_memo (fun (pa : Poweran.t) -> Cache.Key.of_value pa)

let analysis ?(version = analysis_version) ~revisit_limit ~max_paths
    ~max_cycles_per_path ~loop_bound pa c (image : Isa.Asm.image) =
  Cache.Key.combine
    [
      "analysis";
      string_of_int version;
      cpu c;
      Cache.Key.of_value image;
      string_of_int revisit_limit;
      string_of_int max_paths;
      string_of_int max_cycles_per_path;
      poweran pa;
      string_of_int loop_bound;
    ]

let block ~max_cycles_per_path ~max_paths pa c (img : Isa.Asm.image) ~start
    ~limit ~term =
  Cache.Key.combine
    [
      string_of_int static_version;
      string_of_int analysis_version;
      string_of_int max_cycles_per_path;
      string_of_int max_paths;
      cpu c;
      poweran pa;
      Cache.Key.of_value (img.Isa.Asm.words, start, limit, term);
    ]
