type handle = (unit -> unit) Event_queue.handle

type t = {
  mutable clock : Time.t;
  queue : (unit -> unit) Event_queue.t;
  root_rng : Rng.t;
  mutable fired : int;
}

let create ?(seed = 42) () =
  { clock = Time.zero;
    queue = Event_queue.create ();
    root_rng = Rng.of_int seed;
    fired = 0 }

let now t = t.clock
let rng t = t.root_rng

let schedule t ~at f =
  if Time.(at < t.clock) then
    invalid_arg "Engine.schedule: time in the past";
  Event_queue.push t.queue at f

let schedule_after t ~delay f = schedule t ~at:(Time.add t.clock delay) f

let cancel t h = Event_queue.cancel t.queue h

let every t ~interval ?until f =
  if Time.to_us interval <= 0 then invalid_arg "Engine.every: zero interval";
  let rec tick () =
    let next = Time.add t.clock interval in
    match until with
    | Some stop when Time.(next > stop) -> ()
    | _ ->
      ignore (schedule t ~at:next (fun () -> f (); tick ()))
  in
  tick ()

let run ?until t =
  let stop = match until with Some s -> s | None -> max_int in
  Event_queue.drain t.queue ~until:stop (fun at f ->
      t.clock <- at;
      t.fired <- t.fired + 1;
      f ());
  match until with
  | Some stop when Time.(stop > t.clock) -> t.clock <- stop
  | _ -> ()

let pending t = Event_queue.length t.queue
let events_processed t = t.fired
