	.section .note.GNU-stack,"",@progbits
	.text
	.globl dgemm_kernel
	.type dgemm_kernel, @function
	.p2align 4
dgemm_kernel:
	push	%r12
	push	%r13
	push	%r14
	push	%r15
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg Mc
	mov	%rsi, 8(%rsp)	# arg Nc
	mov	%rdx, 16(%rsp)	# arg Kc
	mov	%rcx, 24(%rsp)	# arg A
	mov	%r8, 32(%rsp)	# arg B
	mov	%r9, 40(%rsp)	# arg C
	mov	152(%rsp), %rax	# stack arg LDC
	mov	%rax, 48(%rsp)
	mov	(%rsp), %r9	# home Mc
	mov	16(%rsp), %rbp	# home Kc
	mov	24(%rsp), %r14	# home A
	mov	32(%rsp), %r15	# home B
	mov	$0, %r13
	jmp	.LBL0
.LBL1:
	mov	%r13, %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r10
	lea	(%r10,%rax,8), %r10
	mov	%r13, %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %rbx
	add	48(%rsp), %rax
	lea	(%rbx,%rax,8), %rbx
	mov	$0, %r12
	jmp	.LBL2
.LBL3:
	mov	%r14, %rdi
	mov	%r12, %rax
	lea	(%rdi,%rax,8), %rdi
	mov	%r13, %rax
	imul	%rbp, %rax
	mov	%r15, %rsi
	lea	(%rsi,%rax,8), %rsi
	mov	%r13, %rax
	imul	%rbp, %rax
	mov	%r15, %rdx
	add	%rbp, %rax
	lea	(%rdx,%rax,8), %rdx
	mov	%r9, %rax
	mov	%r14, %rcx
	add	%r12, %rax
	xorpd	%xmm8, %xmm8
	xorpd	%xmm9, %xmm9
	xorpd	%xmm10, %xmm10
	xorpd	%xmm11, %xmm11
	lea	(%rcx,%rax,8), %rcx
	mov	$0, %r8
	jmp	.LBL4
.LBL5:
	# --- mmUnrolledCOMP ---
	movupd	(%rdi), %xmm0	# Vld ptr_A0[0..1]
	movupd	16(%rdi), %xmm1	# Vld ptr_A0[2..3]
	movddup	(%rsi), %xmm4	# Vdup ptr_B0[0]
	movapd	%xmm0, %xmm12	# acc(res_u0_u0..) += A*ptr_B0[0]
	movapd	%xmm1, %xmm13	# acc(res_u0_u2..) += A*ptr_B0[0]
	movddup	(%rdx), %xmm5	# Vdup ptr_B1[0]
	movapd	%xmm0, %xmm14	# acc(res_u1_u0..) += A*ptr_B1[0]
	movapd	%xmm1, %xmm15	# acc(res_u1_u2..) += A*ptr_B1[0]
	mulpd	%xmm4, %xmm12
	mulpd	%xmm4, %xmm13
	mulpd	%xmm5, %xmm14
	mulpd	%xmm5, %xmm15
	addpd	%xmm12, %xmm8
	addpd	%xmm13, %xmm9
	addpd	%xmm14, %xmm10
	addpd	%xmm15, %xmm11
	# --- mmUnrolledCOMP ---
	movupd	(%rcx), %xmm2	# Vld ptr_A1[0..1]
	movupd	16(%rcx), %xmm3	# Vld ptr_A1[2..3]
	movddup	8(%rsi), %xmm6	# Vdup ptr_B0[1]
	movapd	%xmm2, %xmm12	# acc(res_u0_u0..) += A*ptr_B0[1]
	movapd	%xmm3, %xmm13	# acc(res_u0_u2..) += A*ptr_B0[1]
	movddup	8(%rdx), %xmm7	# Vdup ptr_B1[1]
	movapd	%xmm2, %xmm14	# acc(res_u1_u0..) += A*ptr_B1[1]
	movapd	%xmm3, %xmm15	# acc(res_u1_u2..) += A*ptr_B1[1]
	mov	%r9, %rax
	imul	$2, %rax
	mulpd	%xmm6, %xmm12
	mulpd	%xmm6, %xmm13
	mulpd	%xmm7, %xmm14
	mulpd	%xmm7, %xmm15
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	add	$16, %rsi	# ptr_B0 += 2
	add	$16, %rdx	# ptr_B1 += 2
	mov	%r9, %rax
	imul	$2, %rax
	addpd	%xmm12, %xmm8
	addpd	%xmm13, %xmm9
	addpd	%xmm14, %xmm10
	addpd	%xmm15, %xmm11
	lea	(%rcx,%rax,8), %rcx	# ptr_A1 += ...
	add	$2, %r8
.LBL4:
	cmp	%rbp, %r8
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	movupd	(%r10), %xmm12	# Vld ptr_C0[0..1]
	addpd	%xmm8, %xmm12
	movupd	%xmm12, (%r10)	# Vst ptr_C0[0..1]
	movupd	16(%r10), %xmm13	# Vld ptr_C0[2..3]
	addpd	%xmm9, %xmm13
	movupd	%xmm13, 16(%r10)	# Vst ptr_C0[2..3]
	# --- mmUnrolledSTORE ---
	movupd	(%rbx), %xmm14	# Vld ptr_C1[0..1]
	addpd	%xmm10, %xmm14
	movupd	%xmm14, (%rbx)	# Vst ptr_C1[0..1]
	movupd	16(%rbx), %xmm15	# Vld ptr_C1[2..3]
	addpd	%xmm11, %xmm15
	movupd	%xmm15, 16(%rbx)	# Vst ptr_C1[2..3]
	add	$32, %r10	# ptr_C0 += 4
	add	$32, %rbx	# ptr_C1 += 4
	add	$4, %r12
.LBL2:
	cmp	%r9, %r12
	jl	.LBL3
	add	$2, %r13
.LBL0:
	mov	8(%rsp), %rax
	cmp	%rax, %r13
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r15
	pop	%r14
	pop	%r13
	pop	%r12
	ret
	.size dgemm_kernel, .-dgemm_kernel
