(* A fresh process whose first two requests arrive together and race to
   elaborate the processor: both must be answered. This has to be its
   own executable — any earlier request in the same process would
   elaborate first and hide the race. The two requests go through the
   daemon's executor ([Serve.Exec.exec]) on two domains, so they really
   overlap even though elaboration takes only tens of milliseconds. *)

let test_concurrent_first_requests () =
  let ready = Atomic.make 0 in
  let request seed () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    Serve.Exec.exec ~ctx:Xbound.Ctx.default
      (Wire.Request.Run_concrete { bench = "mult"; seed })
  in
  let domains = List.map (fun seed -> Domain.spawn (request seed)) [ 1; 2 ] in
  List.iteri
    (fun k d ->
      match Domain.join d with
      | Ok (Wire.Response.Concrete { cycles; _ }) ->
        Alcotest.(check bool) (Printf.sprintf "request %d ran" k) true (cycles > 0)
      | Ok _ -> Alcotest.failf "request %d: wrong response shape" k
      | Error e -> Alcotest.failf "request %d: %s" k (Xbound.Error.to_string e))
    domains

let () =
  Alcotest.run "serve-cold"
    [
      ( "exec",
        [
          Alcotest.test_case "concurrent first elaboration" `Quick
            test_concurrent_first_requests;
        ] );
    ]
