(* Unit and property tests for the discrete-event engine substrate. *)

module Time = Netsim.Time
module Rng = Netsim.Rng
module Eq = Netsim.Event_queue
module Engine = Netsim.Engine
module Stats = Netsim.Stats

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Time --- *)

let time_tests =
  [ Alcotest.test_case "conversions" `Quick (fun () ->
        check Alcotest.int "ms" 5_000 (Time.to_us (Time.of_ms 5));
        check Alcotest.int "sec" 1_500_000 (Time.to_us (Time.of_sec 1.5));
        check (Alcotest.float 1e-9) "roundtrip" 2.25
          (Time.to_sec (Time.of_sec 2.25)));
    Alcotest.test_case "negative rejected" `Quick (fun () ->
        Alcotest.check_raises "of_us" (Invalid_argument "Time.of_us: negative")
          (fun () -> ignore (Time.of_us (-1)));
        Alcotest.check_raises "diff"
          (Invalid_argument "Time.diff: negative interval") (fun () ->
            ignore (Time.diff (Time.of_us 1) (Time.of_us 2))));
    Alcotest.test_case "arithmetic and order" `Quick (fun () ->
        let a = Time.of_ms 3 and b = Time.of_ms 7 in
        check Alcotest.int "add" 10_000 (Time.to_us (Time.add a b));
        check Alcotest.int "diff" 4_000 (Time.to_us (Time.diff b a));
        check Alcotest.bool "lt" true Time.(a < b);
        check Alcotest.bool "ge" true Time.(b >= a));
    Alcotest.test_case "pp" `Quick (fun () ->
        check Alcotest.string "format" "1.250000s"
          (Time.to_string (Time.of_ms 1250)));
    qtest
      (QCheck.Test.make ~name:"add/diff inverse" ~count:200
         QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
         (fun (a, b) ->
            let ta = Time.of_us a and tb = Time.of_us b in
            Time.to_us (Time.diff (Time.add ta tb) tb) = a)) ]

(* --- Rng --- *)

let rng_tests =
  [ Alcotest.test_case "deterministic for equal seeds" `Quick (fun () ->
        let a = Rng.of_int 7 and b = Rng.of_int 7 in
        for _ = 1 to 100 do
          check Alcotest.int "draw" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "split streams are independent" `Quick (fun () ->
        let a = Rng.of_int 7 in
        let b = Rng.split a in
        let xs = List.init 50 (fun _ -> Rng.int a 1_000_000) in
        let ys = List.init 50 (fun _ -> Rng.int b 1_000_000) in
        check Alcotest.bool "different" true (xs <> ys));
    Alcotest.test_case "copy preserves stream" `Quick (fun () ->
        let a = Rng.of_int 3 in
        ignore (Rng.int a 10);
        let b = Rng.copy a in
        check Alcotest.int "same next" (Rng.int a 1000) (Rng.int b 1000));
    Alcotest.test_case "bounds validation" `Quick (fun () ->
        let a = Rng.of_int 1 in
        Alcotest.check_raises "int" (Invalid_argument "Rng.int: bound <= 0")
          (fun () -> ignore (Rng.int a 0)));
    qtest
      (QCheck.Test.make ~name:"int within bound" ~count:500
         QCheck.(pair small_int (int_range 1 10_000))
         (fun (seed, bound) ->
            let r = Rng.of_int seed in
            let v = Rng.int r bound in
            v >= 0 && v < bound));
    qtest
      (QCheck.Test.make ~name:"int_in within range" ~count:500
         QCheck.(triple small_int (int_range (-100) 100) (int_range 0 1000))
         (fun (seed, lo, span) ->
            let r = Rng.of_int seed in
            let v = Rng.int_in r lo (lo + span) in
            v >= lo && v <= lo + span));
    qtest
      (QCheck.Test.make ~name:"float within bound" ~count:500
         QCheck.small_int (fun seed ->
             let r = Rng.of_int seed in
             let v = Rng.float r 5.0 in
             v >= 0.0 && v < 5.0));
    Alcotest.test_case "exponential positive with given mean" `Quick
      (fun () ->
         let r = Rng.of_int 11 in
         let acc = Stats.Acc.create () in
         for _ = 1 to 20_000 do
           let v = Rng.exponential r 4.0 in
           check Alcotest.bool "positive" true (v >= 0.0);
           Stats.Acc.add acc v
         done;
         let mean = Stats.Acc.mean acc in
         check Alcotest.bool "mean close to 4"
           true (mean > 3.8 && mean < 4.2));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let r = Rng.of_int 5 in
        let a = Array.init 100 Fun.id in
        Rng.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        check (Alcotest.array Alcotest.int) "permutation"
          (Array.init 100 Fun.id) sorted) ]

(* --- Event queue --- *)

let eq_tests =
  [ Alcotest.test_case "pops in time order" `Quick (fun () ->
        let q = Eq.create () in
        ignore (Eq.push q (Time.of_us 30) "c");
        ignore (Eq.push q (Time.of_us 10) "a");
        ignore (Eq.push q (Time.of_us 20) "b");
        let order =
          List.init 3 (fun _ ->
              match Eq.pop q with Some (_, x) -> x | None -> "?")
        in
        check (Alcotest.list Alcotest.string) "order" ["a"; "b"; "c"] order);
    Alcotest.test_case "FIFO within equal timestamps" `Quick (fun () ->
        let q = Eq.create () in
        for i = 0 to 9 do
          ignore (Eq.push q (Time.of_us 5) i)
        done;
        let order =
          List.init 10 (fun _ ->
              match Eq.pop q with Some (_, x) -> x | None -> -1)
        in
        check (Alcotest.list Alcotest.int) "fifo" (List.init 10 Fun.id)
          order);
    Alcotest.test_case "cancel removes exactly one event" `Quick (fun () ->
        let q = Eq.create () in
        let _h1 = Eq.push q (Time.of_us 1) 1 in
        let h2 = Eq.push q (Time.of_us 2) 2 in
        let _h3 = Eq.push q (Time.of_us 3) 3 in
        check Alcotest.bool "cancelled" true (Eq.cancel q h2);
        check Alcotest.bool "double-cancel" false (Eq.cancel q h2);
        check Alcotest.int "length" 2 (Eq.length q);
        let order =
          List.init 2 (fun _ ->
              match Eq.pop q with Some (_, x) -> x | None -> -1)
        in
        check (Alcotest.list Alcotest.int) "remaining" [1; 3] order);
    Alcotest.test_case "cancel after pop is refused" `Quick (fun () ->
        let q = Eq.create () in
        let h = Eq.push q (Time.of_us 1) () in
        ignore (Eq.pop q);
        check Alcotest.bool "gone" false (Eq.cancel q h));
    Alcotest.test_case "peek_time skips cancellations" `Quick (fun () ->
        let q = Eq.create () in
        let h = Eq.push q (Time.of_us 1) 1 in
        ignore (Eq.push q (Time.of_us 9) 2);
        ignore (Eq.cancel q h);
        check (Alcotest.option Alcotest.int) "peek" (Some 9)
          (Option.map Time.to_us (Eq.peek_time q)));
    qtest
      (QCheck.Test.make ~name:"heap pops sorted" ~count:100
         QCheck.(list_of_size Gen.(int_range 0 200) (int_bound 10_000))
         (fun times ->
            let q = Eq.create () in
            List.iter (fun t -> ignore (Eq.push q (Time.of_us t) t)) times;
            let rec drain acc =
              match Eq.pop q with
              | None -> List.rev acc
              | Some (_, v) -> drain (v :: acc)
            in
            let out = drain [] in
            out = List.stable_sort compare times));
    Alcotest.test_case "cancellation inside a tie group keeps FIFO order"
      `Quick (fun () ->
        let q = Eq.create () in
        let hs = List.init 6 (fun i -> (i, Eq.push q (Time.of_us 7) i)) in
        (* Cancel the middle of the group; survivors must keep their
           relative scheduling order, not re-sort around the hole. *)
        List.iter
          (fun (i, h) -> if i = 2 || i = 3 then ignore (Eq.cancel q h))
          hs;
        let rec drain acc =
          match Eq.pop q with
          | None -> List.rev acc
          | Some (_, v) -> drain (v :: acc)
        in
        check (Alcotest.list Alcotest.int) "survivors in order" [0; 1; 4; 5]
          (drain []));
    Alcotest.test_case "cancelling the head exposes the next event" `Quick
      (fun () ->
        let q = Eq.create () in
        let h = Eq.push q (Time.of_us 1) 1 in
        ignore (Eq.push q (Time.of_us 2) 2);
        check Alcotest.bool "cancelled" true (Eq.cancel q h);
        check Alcotest.int "length skips the corpse" 1 (Eq.length q);
        check
          (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
          "pop skips the corpse" (Some (2, 2))
          (Option.map (fun (t, v) -> (Time.to_us t, v)) (Eq.pop q));
        check Alcotest.bool "empty after" true (Eq.is_empty q));
    Alcotest.test_case "a stale handle never cancels a newer event" `Quick
      (fun () ->
        let q = Eq.create () in
        let h = Eq.push q (Time.of_us 5) "old" in
        check Alcotest.bool "first cancel" true (Eq.cancel q h);
        (* Same timestamp, scheduled after the cancellation: the retired
           handle must not alias it. *)
        ignore (Eq.push q (Time.of_us 5) "new");
        check Alcotest.bool "stale handle refused" false (Eq.cancel q h);
        check
          (Alcotest.option Alcotest.string)
          "newer event survives" (Some "new")
          (Option.map snd (Eq.pop q)));
    Alcotest.test_case "ties straddling a pop still fire in push order"
      `Quick (fun () ->
        let q = Eq.create () in
        ignore (Eq.push q (Time.of_us 5) "a");
        ignore (Eq.push q (Time.of_us 5) "b");
        check (Alcotest.option Alcotest.string) "first" (Some "a")
          (Option.map snd (Eq.pop q));
        (* Pushed after a pop, at the same instant: the sequence counter
           is monotone for the queue's lifetime, so "c" follows "b". *)
        ignore (Eq.push q (Time.of_us 5) "c");
        check (Alcotest.option Alcotest.string) "second" (Some "b")
          (Option.map snd (Eq.pop q));
        check (Alcotest.option Alcotest.string) "third" (Some "c")
          (Option.map snd (Eq.pop q)));
    qtest
      (QCheck.Test.make
         ~name:"random cancellations preserve stable order of survivors"
         ~count:100
         QCheck.(
           list_of_size
             Gen.(int_range 0 100)
             (pair (int_bound 50) bool))
         (fun events ->
            (* Schedule everything, cancel the flagged ones, and require
               the drain to equal a stable sort of the survivors. *)
            let q = Eq.create () in
            let handles =
              List.mapi
                (fun i (t, dead) -> (t, i, dead, Eq.push q (Time.of_us t) (t, i)))
                events
            in
            List.iter
              (fun (_, _, dead, h) ->
                 if dead then
                   ignore (Eq.cancel q h))
              handles;
            let rec drain acc =
              match Eq.pop q with
              | None -> List.rev acc
              | Some (_, v) -> drain (v :: acc)
            in
            let expected =
              List.filter_map
                (fun (t, i, dead, _) -> if dead then None else Some (t, i))
                handles
              |> List.stable_sort (fun (t, _) (t', _) -> compare t t')
            in
            drain [] = expected)) ]

(* Model test: the queue against a list of live (time, id) pairs, where
   ids are push order and so break ties.  Cancels pick any handle ever
   pushed, fired and cancelled ones included, and outnumber pops, so
   tombstones regularly exceed half the heap and force compaction. *)
type eq_op = Push of int | Cancel of int | Pop

let eq_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun t -> Push t) (int_bound 40));
        (4, map (fun k -> Cancel k) nat);
        (1, return Pop) ])

let eq_model_test =
  QCheck.Test.make ~name:"event queue matches a sorted-list model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 400) eq_op_gen))
    (fun ops ->
       let q = Eq.create () in
       let handles = ref [||] and live = ref [] in
       let earliest () =
         List.fold_left
           (fun best (t, i) ->
              match best with
              | Some (t', i') when (t', i') < (t, i) -> best
              | _ -> Some (t, i))
           None !live
       in
       let step = function
         | Push t ->
           let id = Array.length !handles in
           handles := Array.append !handles [| Eq.push q (Time.of_us t) id |];
           live := (t, id) :: !live;
           true
         | Cancel _ when Array.length !handles = 0 -> true
         | Cancel k ->
           let id = k mod Array.length !handles in
           let expected = List.exists (fun (_, i) -> i = id) !live in
           live := List.filter (fun (_, i) -> i <> id) !live;
           Eq.cancel q !handles.(id) = expected
         | Pop ->
           let expected = earliest () in
           (match expected with
            | Some (_, id) -> live := List.filter (fun (_, i) -> i <> id) !live
            | None -> ());
           Option.map (fun (t, id) -> (Time.to_us t, id)) (Eq.pop q)
           = expected
       in
       let consistent () =
         Eq.length q = List.length !live && Eq.is_empty q = (!live = [])
       in
       List.for_all (fun op -> step op && consistent ()) ops
       && List.for_all (fun _ -> step Pop && consistent ())
            (List.init (List.length !live + 1) Fun.id)
       (* every handle has now fired or been cancelled *)
       && Array.for_all (fun h -> not (Eq.cancel q h)) !handles)

let eq_compaction_tests =
  [ Alcotest.test_case "mass cancellation keeps order and length" `Quick
      (fun () ->
        (* Cancelling 3 of every 4 of 64 entries without popping leaves
           tombstones well over half the heap, so it is compacted. *)
        let q = Eq.create () in
        let hs = Array.init 64 (fun i -> Eq.push q (Time.of_us (i mod 8)) i) in
        Array.iteri (fun i h -> if i mod 4 <> 0 then ignore (Eq.cancel q h)) hs;
        check Alcotest.int "length" 16 (Eq.length q);
        let rec drain acc =
          match Eq.pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
        in
        let survivors = List.init 16 (fun k -> 4 * k) in
        check (Alcotest.list Alcotest.int) "order"
          (List.stable_sort (fun a b -> compare (a mod 8) (b mod 8)) survivors)
          (drain []);
        check Alcotest.bool "cancel after fire" false (Eq.cancel q hs.(0)));
    qtest eq_model_test ]

(* --- Engine --- *)

let engine_tests =
  [ Alcotest.test_case "clock advances to event times" `Quick (fun () ->
        let e = Engine.create () in
        let seen = ref [] in
        ignore (Engine.schedule e ~at:(Time.of_ms 5) (fun () ->
            seen := Time.to_us (Engine.now e) :: !seen));
        ignore (Engine.schedule e ~at:(Time.of_ms 2) (fun () ->
            seen := Time.to_us (Engine.now e) :: !seen));
        Engine.run e;
        check (Alcotest.list Alcotest.int) "times" [2000; 5000]
          (List.rev !seen));
    Alcotest.test_case "run ~until leaves later events queued" `Quick
      (fun () ->
         let e = Engine.create () in
         let fired = ref 0 in
         ignore (Engine.schedule e ~at:(Time.of_ms 1) (fun () -> incr fired));
         ignore (Engine.schedule e ~at:(Time.of_ms 10) (fun () -> incr fired));
         Engine.run ~until:(Time.of_ms 5) e;
         check Alcotest.int "one fired" 1 !fired;
         check Alcotest.int "one pending" 1 (Engine.pending e);
         check Alcotest.int "clock at until" 5000
           (Time.to_us (Engine.now e)));
    Alcotest.test_case "schedule in the past rejected" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.schedule e ~at:(Time.of_ms 2) (fun () -> ()));
        Engine.run e;
        Alcotest.check_raises "past"
          (Invalid_argument "Engine.schedule: time in the past") (fun () ->
            ignore (Engine.schedule e ~at:(Time.of_ms 1) (fun () -> ()))));
    Alcotest.test_case "cancel suppresses callback" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        let h = Engine.schedule e ~at:(Time.of_ms 1) (fun () ->
            fired := true)
        in
        check Alcotest.bool "cancelled" true (Engine.cancel e h);
        Engine.run e;
        check Alcotest.bool "not fired" false !fired);
    Alcotest.test_case "every fires periodically until deadline" `Quick
      (fun () ->
         let e = Engine.create () in
         let n = ref 0 in
         Engine.every e ~interval:(Time.of_ms 10) ~until:(Time.of_ms 45)
           (fun () -> incr n);
         Engine.run e;
         check Alcotest.int "fired 4 times" 4 !n);
    Alcotest.test_case "events scheduled during run are executed" `Quick
      (fun () ->
         let e = Engine.create () in
         let log = ref [] in
         ignore (Engine.schedule e ~at:(Time.of_ms 1) (fun () ->
             log := "outer" :: !log;
             ignore (Engine.schedule_after e ~delay:(Time.of_ms 1)
                       (fun () -> log := "inner" :: !log))));
         Engine.run e;
         check (Alcotest.list Alcotest.string) "both" ["outer"; "inner"]
           (List.rev !log);
         check Alcotest.int "processed" 2 (Engine.events_processed e)) ]

(* --- Stats --- *)

let stats_tests =
  [ Alcotest.test_case "acc mean/stddev" `Quick (fun () ->
        let a = Stats.Acc.create () in
        List.iter (Stats.Acc.add a) [2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0];
        check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Acc.mean a);
        check Alcotest.int "count" 8 (Stats.Acc.count a);
        check (Alcotest.float 1e-6) "stddev" 2.13809 (Stats.Acc.stddev a);
        check (Alcotest.float 1e-9) "min" 2.0 (Stats.Acc.min a);
        check (Alcotest.float 1e-9) "max" 9.0 (Stats.Acc.max a));
    Alcotest.test_case "acc empty behaviour" `Quick (fun () ->
        let a = Stats.Acc.create () in
        check (Alcotest.float 0.0) "mean" 0.0 (Stats.Acc.mean a);
        Alcotest.check_raises "min" (Invalid_argument "Stats.Acc.min: empty")
          (fun () -> ignore (Stats.Acc.min a)));
    Alcotest.test_case "percentiles nearest-rank" `Quick (fun () ->
        let s = Stats.Samples.create () in
        List.iter (Stats.Samples.add s)
          (List.init 100 (fun i -> float_of_int (i + 1)));
        check (Alcotest.float 1e-9) "p50" 50.0 (Stats.Samples.percentile s 50.0);
        check (Alcotest.float 1e-9) "p99" 99.0 (Stats.Samples.percentile s 99.0);
        check (Alcotest.float 1e-9) "p100" 100.0
          (Stats.Samples.percentile s 100.0));
    Alcotest.test_case "hist buckets and mode" `Quick (fun () ->
        let h = Stats.Hist.create () in
        List.iter (Stats.Hist.add h) [3; 1; 3; 2; 3; 1];
        check Alcotest.int "mode" 3 (Stats.Hist.mode h);
        check Alcotest.int "count" 6 (Stats.Hist.count h);
        check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "buckets" [(1, 2); (2, 1); (3, 3)] (Stats.Hist.buckets h));
    qtest
      (QCheck.Test.make ~name:"acc mean matches naive mean" ~count:200
         QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 100.0))
         (fun xs ->
            let a = Stats.Acc.create () in
            List.iter (Stats.Acc.add a) xs;
            let naive =
              List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
            in
            abs_float (Stats.Acc.mean a -. naive) < 1e-9)) ]

(* --- Trace --- *)

let trace_tests =
  [ Alcotest.test_case "emit and filter" `Quick (fun () ->
        let tr = Netsim.Trace.create () in
        Netsim.Trace.emit tr ~at:Time.zero ~node:"a" ~kind:"x" "one";
        Netsim.Trace.emit tr ~at:(Time.of_us 2) ~node:"b" ~kind:"y" "two";
        Netsim.Trace.emit tr ~at:(Time.of_us 3) ~node:"a" ~kind:"x" "three";
        check Alcotest.int "count x" 2 (Netsim.Trace.count tr ~kind:"x");
        check Alcotest.int "all" 3 (List.length (Netsim.Trace.events tr)));
    Alcotest.test_case "disabled trace records nothing" `Quick (fun () ->
        let tr = Netsim.Trace.create () in
        Netsim.Trace.set_enabled tr false;
        Netsim.Trace.emit tr ~at:Time.zero ~node:"a" ~kind:"x" "one";
        check Alcotest.int "empty" 0 (List.length (Netsim.Trace.events tr)));
    Alcotest.test_case "capacity keeps newest" `Quick (fun () ->
        let tr = Netsim.Trace.create ~capacity:10 () in
        for i = 1 to 25 do
          Netsim.Trace.emit tr ~at:(Time.of_us i) ~node:"n" ~kind:"k"
            (string_of_int i)
        done;
        let evs = Netsim.Trace.events tr in
        check Alcotest.bool "bounded" true (List.length evs <= 10);
        let newest = List.nth evs (List.length evs - 1) in
        check Alcotest.string "newest kept" "25" newest.Netsim.Trace.detail);
    Alcotest.test_case "wraparound keeps a contiguous newest suffix" `Quick
      (fun () ->
        let tr = Netsim.Trace.create ~capacity:8 () in
        for i = 1 to 100 do
          Netsim.Trace.emit tr ~at:(Time.of_us i) ~node:"n"
            ~kind:(if i mod 2 = 0 then "even" else "odd")
            (string_of_int i)
        done;
        let evs = Netsim.Trace.events tr in
        let n = List.length evs in
        check Alcotest.bool "bounded" true (n <= 8);
        check Alcotest.bool "non-empty" true (n > 0);
        (* Whatever survives the wrap must be exactly the newest [n]
           events, in emission order — no gaps, no stale entries. *)
        List.iteri
          (fun idx e ->
             check Alcotest.string
               (Printf.sprintf "slot %d" idx)
               (string_of_int (100 - n + 1 + idx))
               e.Netsim.Trace.detail)
          evs;
        (* The per-kind index stays consistent with the buffer. *)
        check Alcotest.int "kind counts partition the buffer" n
          (Netsim.Trace.count tr ~kind:"even"
           + Netsim.Trace.count tr ~kind:"odd");
        check Alcotest.int "find agrees with filter"
          (List.length
             (List.filter (fun e -> e.Netsim.Trace.kind = "even") evs))
          (List.length (Netsim.Trace.find tr ~kind:"even"))) ]

let trace_emitf_test =
  Alcotest.test_case "emitf renders only for an enabled trace" `Quick
    (fun () ->
      let calls = ref 0 in
      let pp ppf n =
        incr calls;
        Format.fprintf ppf "<%d>" n
      in
      let emit tr =
        Netsim.Trace.emitf tr ~at:Time.zero ~node:"n" ~kind:"k"
          "x %a y=%d %s" pp 1 2 "z"
      in
      emit None;
      let tr = Netsim.Trace.create () in
      Netsim.Trace.set_enabled tr false;
      emit (Some tr);
      check Alcotest.int "no printer ran" 0 !calls;
      check Alcotest.int "nothing recorded" 0
        (List.length (Netsim.Trace.events tr));
      Netsim.Trace.set_enabled tr true;
      emit (Some tr);
      check Alcotest.int "printer ran once" 1 !calls;
      check (Alcotest.list Alcotest.string) "same text as asprintf"
        [ Format.asprintf "x %a y=%d %s" pp 1 2 "z" ]
        (List.map (fun e -> e.Netsim.Trace.detail) (Netsim.Trace.events tr)))

let suite =
  [ ("time", time_tests); ("rng", rng_tests); ("event-queue", eq_tests @ eq_compaction_tests);
    ("engine", engine_tests); ("stats", stats_tests);
    ("trace", trace_tests @ [ trace_emitf_test ]) ]
