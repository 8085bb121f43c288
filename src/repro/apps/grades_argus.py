"""The grades example written in mini-Argus itself.

These sources are the closest executable artifacts to the paper's actual
figures: ``FIG_3_1_SOURCE`` transcribes Figure 3-1 (two sequential loops),
``FIG_4_2_SOURCE`` transcribes Figure 4-2 (the coenter with a shared
``queue[pt]``).  Both print via a ``printer`` guardian and return the
printed lines.  Tests pin their datagram counts and end times to the
Python transcriptions in :mod:`repro.apps.grades`, and the conformance
suite runs them on the simulator and over real sockets.
"""

from __future__ import annotations

__all__ = ["FIG_3_1_SOURCE", "FIG_4_2_SOURCE"]

_PRELUDE = """
% The grades example, straight from the paper (section 3.1).
sinfo = record [ stu: string, grade: int ]
info = array [ sinfo ]
pt = promise returns (real)
averages = array [ pt ]

guardian grades_db is
  handler record_grade (stu: string, grade: int) returns (real)
    sleep(0.2)                      % database work
    return (float(grade))
  end
end

guardian printer is
  handler print (line: string)
    sleep(0.1)                      % printing work
    return ()
  end
end
"""

#: Figure 3-1: record everything, flush, then claim-and-print in order.
FIG_3_1_SOURCE = _PRELUDE + """
program main (grades: info)
  a: averages := averages$create()   % create new, empty array
  % record grades
  for s: sinfo in info$elements(grades) do
    averages$addh(a, stream grades_db.record_grade(s.stu, s.grade))
  end
  flush grades_db.record_grade
  % print
  output: string := ""
  for i: int in averages$indexes(a) do
    line: string := make_string(grades[i].stu, pt$claim(a[i]))
    stream printer.print(line)
    output := output + line + ";"
  end
  synch printer.print
  return (output)
end
"""

#: Figure 4-2: the coenter, with a shared promise queue between the arms.
FIG_4_2_SOURCE = _PRELUDE + """
program main (grades: info)
  aveq: queue[pt] := queue[pt]$create()
  output: string := ""
  coenter
  action   % recording grades
    for s: sinfo in grades do
      queue[pt]$enq(aveq, stream grades_db.record_grade(s.stu, s.grade))
    end
    flush grades_db.record_grade
    synch grades_db.record_grade
  action   % printing
    i: int := 0
    while i < info$len(grades) do
      ave: pt := queue[pt]$deq(aveq)
      line: string := make_string(grades[i].stu, pt$claim(ave))
      stream printer.print(line)
      output := output + line + ";"
      i := i + 1
    end
    synch printer.print
  end
  return (output)
end
"""

