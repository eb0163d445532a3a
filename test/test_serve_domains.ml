(* A fresh `xbound serve --workers 2 -j 2` process under concurrent
   cold exact requests: each executor runs on its own domain with its own
   worker-pool slot, so one request's exploration can never run on
   another request's scratch engine. Every kernel is asked at once, for
   several rounds, with no cache (so every round explores), and every
   answer must be the bytes the in-process executor renders. This has to
   be its own executable, and the daemon its own process, so nothing
   earlier in the same process elaborates or warms a pool first. *)

let xbound =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/xbound_cli.exe"
let rounds = 16
let kernels = List.map fst (Xbound.benchmarks ())
let request bench = Wire.Request.Analyze { bench; tier = Xbound.Tier.Exact }

let render = function
  | Ok r -> Serve.Render.to_string r
  | Error e -> "error: " ^ Xbound.Error.to_string e

let reference =
  let ctx = Xbound.Ctx.create ~jobs:2 () in
  List.map (fun k -> (k, render (Serve.Exec.exec ~ctx (request k)))) kernels

let start_daemon sock log =
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process xbound
      [| xbound; "serve"; "--socket"; sock; "--workers"; "2"; "-j"; "2"; "--no-cache" |]
      Unix.stdin Unix.stdout err
  in
  Unix.close err;
  let addr = Serve.Addr.Unix_sock sock in
  let rec wait n =
    match Serve.Client.connect addr with
    | Ok c -> Serve.Client.close c
    | Error _ when n > 0 ->
      Unix.sleepf 0.05;
      wait (n - 1)
    | Error m -> Alcotest.failf "daemon did not come up: %s" m
  in
  wait 600;
  (pid, addr)

(* Fork-heavy kernels first: while one executor explores the biggest
   tree, the other runs every other forking kernel next to it. *)
let by_forks =
  let forks = [ "div"; "PI"; "tHold"; "rle"; "binSearch"; "inSort"; "Viterbi" ] in
  List.filter (fun k -> List.mem k forks) kernels
  @ List.filter (fun k -> not (List.mem k forks)) kernels

(* All kernels in flight at once, pipelined on one connection so the
   executors pick them up in [by_forks] order; answers come back by id. *)
let round addr =
  let answers = Hashtbl.create 32 in
  let fd =
    match Serve.Addr.connect addr with
    | Ok fd -> fd
    | Error m -> Alcotest.failf "connect: %s" m
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  List.iteri
    (fun i k ->
      Serve.Frame.write fd
        (Wire.encode_request
           { Wire.id = i + 1; priority = Wire.Interactive; request = request k }))
    by_forks;
  List.iter
    (fun _ ->
      match Serve.Frame.read fd with
      | Error e -> Alcotest.failf "read: %s" (Serve.Frame.read_error_to_string e)
      | Ok payload -> (
        match Wire.decode_response payload with
        | Ok { Wire.rid; result } ->
          Hashtbl.replace answers (List.nth by_forks (rid - 1)) (render result)
        | Error e -> Alcotest.failf "decode: %s" (Xbound.Error.to_string e)))
    by_forks;
  answers

let test_concurrent_cold_exact () =
  let dir = Filename.get_temp_dir_name () in
  let tag = Printf.sprintf "xbound-test-domains-%d" (Unix.getpid ()) in
  let sock = Filename.concat dir (tag ^ ".sock") in
  let log = Filename.concat dir (tag ^ ".log") in
  let pid, addr = start_daemon sock log in
  let stop () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    (try Sys.remove sock with Sys_error _ -> ());
    try Sys.remove log with Sys_error _ -> ()
  in
  Fun.protect ~finally:stop @@ fun () ->
  for r = 1 to rounds do
    let answers = round addr in
    List.iter
      (fun (k, expected) ->
        Alcotest.(check string)
          (Printf.sprintf "round %d: %s equals the in-process reference" r k)
          expected
          (Option.value (Hashtbl.find_opt answers k) ~default:"no answer"))
      reference
  done

let () =
  Alcotest.run "serve-domains"
    [
      ( "daemon",
        [
          Alcotest.test_case "--workers 2 -j 2 concurrent cold exact" `Slow
            test_concurrent_cold_exact;
        ] );
    ]
